//! The resident daemon: listener, supervisor, workers, dispatch.
//!
//! Thread architecture (DESIGN.md §5f):
//!
//! - The **accept loop** (caller's thread) owns the listener. Each accepted
//!   connection gets a reader thread plus a writer thread fed by an mpsc
//!   channel, so responses can complete out of order.
//! - `health`/`stats`/`shutdown` are answered inline by the reader —
//!   control-plane traffic must keep working exactly when the data plane is
//!   saturated.
//! - `analyze`/`sweep`/`delta` become [`Job`]s on the bounded
//!   [`AdmissionQueue`]; past capacity the reader answers `503` directly.
//!   `delta` is the incremental ECO path: the base netlist resolves through
//!   the [`DesignStore`] (graph, features, and GNN embedding prepared once),
//!   the delta ops edit that base, and the partition-scoped pipeline replays
//!   untouched partitions from the shared segmented artifact cache.
//! - N **supervisor** threads each babysit one worker thread. A worker that
//!   panics mid-job is caught at the [`std::panic::catch_unwind`] boundary,
//!   the client gets a typed `500`, and the supervisor spawns a fresh
//!   worker — the process never dies with a request on the wire.
//! - All workers share one [`ArtifactCache`] (single-flighted, crash safe
//!   on disk) and one [`DesignStore`], so identical netlists across
//!   tenants train and analyze once.
//!
//! Deadlines: a request's `deadline_ms` becomes a [`CancelToken`], the
//! request's only time limit. It is checked before design preparation and
//! polled by the engine before each of its five stages, so an expired
//! request stops at the next stage boundary under either failure policy and
//! answers a typed `504`.

use crate::admission::{AdmissionQueue, Admit, ServerStats};
use crate::design::{analysis_config, DesignStore, PreparedDesign};
use crate::protocol::{
    write_line, Request, Response, Verb, CODE_BAD_REQUEST, CODE_DEADLINE, CODE_INTERNAL, CODE_SHED,
};
use crate::ServeError;
use cirstag::failpoint as fail;
use cirstag::{
    analyze_partitioned, ArtifactCache, CancelToken, CirStag, CirStagConfig, CirStagError,
    PartitionedReport, StabilityReport,
};
use cirstag_circuit::{apply_delta, partition_graph, NetlistDelta, PartitionConfig};
use serde::Value;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (`:0` picks an ephemeral
    /// port — pair with `port_file` for discovery).
    pub addr: String,
    /// Worker threads executing queued analyses.
    pub workers: usize,
    /// Admission-queue bound; depth beyond this sheds with `503`.
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Base failure policy for requests without a `best_effort` field.
    pub best_effort: bool,
    /// Optional on-disk artifact-cache directory shared by all tenants.
    pub cache_dir: Option<String>,
    /// When set, the bound address is written here after `bind` — how
    /// scripts discover an ephemeral port.
    pub port_file: Option<String>,
}

/// Prepared designs retained in memory.
const DESIGN_CAPACITY: usize = 8;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            default_deadline_ms: None,
            best_effort: false,
            cache_dir: None,
            port_file: None,
        }
    }
}

/// One admitted unit of work.
struct Job {
    request: Request,
    cancel: CancelToken,
    responder: mpsc::Sender<Response>,
    enqueued: Instant,
}

/// State shared by the accept loop, readers, and workers.
struct Shared {
    queue: AdmissionQueue<Job>,
    stats: ServerStats,
    cache: ArtifactCache,
    designs: DesignStore,
    shutdown: AtomicBool,
    local: SocketAddr,
    workers: usize,
    base_best_effort: bool,
    default_deadline_ms: Option<u64>,
    started: Instant,
}

impl Shared {
    /// Flips the shutdown flag, closes the queue, and unblocks the accept
    /// loop with a loopback connection.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.queue.close();
        // The accept loop is blocked in `accept`; a throwaway connection
        // wakes it so it can observe the flag.
        drop(TcpStream::connect(self.local));
    }
}

/// Why a worker thread returned.
enum WorkerExit {
    /// Queue closed and drained — orderly exit.
    Shutdown,
    /// A job panicked; the supervisor must respawn.
    Panicked,
}

/// A bound, not-yet-running daemon. Splitting `bind` from [`Server::run`]
/// lets embedders (the bench harness, the chaos tests) learn the ephemeral
/// port before the accept loop starts blocking.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener, initializes the shared state, and writes the
    /// port file when configured.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when binding or writing the port file fails.
    pub fn bind(config: &ServeConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ServeError::io(format!("bind {}: {e}", config.addr)))?;
        let local = listener
            .local_addr()
            .map_err(|e| ServeError::io(format!("local_addr: {e}")))?;
        if let Some(pf) = &config.port_file {
            std::fs::write(pf, format!("{local}\n"))
                .map_err(|e| ServeError::io(format!("write port file {pf}: {e}")))?;
        }
        let mut cache = ArtifactCache::new();
        if let Some(dir) = &config.cache_dir {
            cache = cache.with_disk_dir(dir);
        }
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(config.queue_capacity),
            stats: ServerStats::default(),
            cache,
            designs: DesignStore::new(DESIGN_CAPACITY),
            shutdown: AtomicBool::new(false),
            local,
            workers: config.workers.max(1),
            base_best_effort: config.best_effort,
            default_deadline_ms: config.default_deadline_ms,
            // cirstag-lint: allow(nondeterminism) -- request timing/deadline bookkeeping; responses carry it as diagnostics only
            started: Instant::now(),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local
    }

    /// Runs the daemon until a `shutdown` request arrives: spawns the
    /// worker supervisors, accepts connections, drains the queue on
    /// shutdown, and writes a final summary line to `out`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when spawning worker threads fails. Per-request
    /// and per-connection failures never abort the daemon — that is the
    /// point of it.
    pub fn run(self, out: &mut dyn Write) -> Result<(), ServeError> {
        let Server { listener, shared } = self;
        writeln!(
            out,
            "cirstag serve listening on {} ({} workers, queue {}, policy {})",
            shared.local,
            shared.workers,
            shared.queue.capacity(),
            if shared.base_best_effort {
                "best-effort"
            } else {
                "strict"
            }
        )
        .map_err(|e| ServeError::io(format!("write startup line: {e}")))?;

        let supervisors = spawn_supervisors(&shared)?;

        loop {
            if shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            // Failpoint `serve/accept`: simulate a transient accept-side
            // failure (EMFILE, ECONNABORTED). The kernel backlog holds
            // pending connections, so skipping an iteration loses nothing.
            if fail::check("serve/accept").is_some() {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    if shared.shutdown.load(Ordering::Acquire) {
                        break; // the begin_shutdown wake-up connection
                    }
                    let sh = Arc::clone(&shared);
                    let spawned = std::thread::Builder::new()
                        .name("cirstag-serve-conn".to_string())
                        .spawn(move || handle_connection(&sh, stream));
                    if spawned.is_err() {
                        // Out of threads: shed at the connection level.
                        ServerStats::bump(&shared.stats.shed);
                    }
                }
                Err(_) => {
                    // Transient accept failure; back off briefly and retry.
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }

        shared.queue.close();
        for s in supervisors {
            drop(s.join());
        }
        let st = &shared.stats;
        let read = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        writeln!(
            out,
            "cirstag serve drained after {}ms: {} received, {} completed, {} shed, \
             {} timeouts, {} failed, {} panics caught, {} workers respawned",
            // cirstag-lint: allow(nondeterminism) -- request timing/deadline bookkeeping; responses carry it as diagnostics only
            millis(shared.started.elapsed()),
            read(&st.received),
            read(&st.completed),
            read(&st.shed),
            read(&st.timeouts),
            read(&st.failed),
            read(&st.panics),
            read(&st.respawns),
        )
        .map_err(|e| ServeError::io(format!("write summary line: {e}")))?;
        Ok(())
    }
}

/// Saturating millisecond conversion.
fn millis(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// One supervisor thread per worker slot; each respawns its worker after a
/// panic and exits once the queue is closed and drained.
fn spawn_supervisors(shared: &Arc<Shared>) -> Result<Vec<std::thread::JoinHandle<()>>, ServeError> {
    let mut handles = Vec::with_capacity(shared.workers);
    for slot in 0..shared.workers {
        let shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name(format!("cirstag-serve-supervisor-{slot}"))
            .spawn(move || loop {
                let s = Arc::clone(&shared);
                let worker = std::thread::Builder::new()
                    .name(format!("cirstag-serve-worker-{slot}"))
                    .spawn(move || worker_loop(&s));
                let Ok(worker) = worker else {
                    return; // cannot spawn workers at all; give up the slot
                };
                match worker.join() {
                    Ok(WorkerExit::Shutdown) => return,
                    Ok(WorkerExit::Panicked) | Err(_) => {
                        ServerStats::bump(&shared.stats.respawns);
                    }
                }
            })
            .map_err(|e| ServeError::io(format!("spawn supervisor {slot}: {e}")))?;
        handles.push(handle);
    }
    Ok(handles)
}

/// Pops jobs until the queue closes. A panicking job is converted into a
/// typed `500` for its client; the worker then reports `Panicked` so the
/// supervisor replaces it (any poisoned thread-local numeric state dies
/// with the thread).
fn worker_loop(shared: &Shared) -> WorkerExit {
    while let Some(job) = shared.queue.pop() {
        let id = job.request.id;
        let responder = job.responder.clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| handle_job(shared, &job)));
        match outcome {
            Ok(resp) => {
                count_response(shared, &resp);
                drop(responder.send(resp));
            }
            Err(_) => {
                ServerStats::bump(&shared.stats.panics);
                ServerStats::bump(&shared.stats.failed);
                drop(responder.send(Response::error(
                    id,
                    CODE_INTERNAL,
                    "worker panicked during analysis; a fresh worker was spawned",
                )));
                return WorkerExit::Panicked;
            }
        }
    }
    WorkerExit::Shutdown
}

/// Attributes a finished response to the right counter.
fn count_response(shared: &Shared, resp: &Response) {
    let counter = match resp.code {
        CODE_DEADLINE => &shared.stats.timeouts,
        CODE_BAD_REQUEST => &shared.stats.bad_requests,
        c if c >= 500 => &shared.stats.failed,
        _ => &shared.stats.completed,
    };
    ServerStats::bump(counter);
}

/// Reader side of one connection; spawns the paired writer thread.
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    ServerStats::bump(&shared.stats.connections);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<Response>();
    let writer = std::thread::Builder::new()
        .name("cirstag-serve-writer".to_string())
        .spawn(move || {
            let mut w = BufWriter::new(stream);
            for resp in rx {
                let Ok(line) = resp.to_line() else { continue };
                if write_line(&mut w, line).is_err() {
                    break; // client went away; drop remaining responses
                }
            }
        });
    for line in BufReader::new(read_half).lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        ServerStats::bump(&shared.stats.received);
        match Request::parse(&line) {
            Err(e) => {
                ServerStats::bump(&shared.stats.bad_requests);
                drop(tx.send(Response::error(0, CODE_BAD_REQUEST, e.to_string())));
            }
            Ok(req) => dispatch(shared, req, &tx),
        }
    }
    drop(tx); // writer exits once queued jobs release their clones
    if let Ok(w) = writer {
        drop(w.join());
    }
}

/// Routes one parsed request: control verbs inline, work verbs through the
/// admission queue.
fn dispatch(shared: &Arc<Shared>, req: Request, tx: &mpsc::Sender<Response>) {
    let id = req.id;
    match req.verb {
        Verb::Health => {
            drop(tx.send(Response::ok(id, health_body(shared))));
            ServerStats::bump(&shared.stats.completed);
        }
        Verb::Stats => {
            let body = shared.stats.to_value(shared.queue.depth());
            drop(tx.send(Response::ok(id, body)));
            ServerStats::bump(&shared.stats.completed);
        }
        Verb::Shutdown => {
            drop(tx.send(Response::ok(
                id,
                Value::Object(vec![("stopping".to_string(), Value::Bool(true))]),
            )));
            ServerStats::bump(&shared.stats.completed);
            shared.begin_shutdown();
        }
        Verb::Analyze | Verb::Sweep | Verb::Delta => {
            let deadline_ms = req.deadline_ms.or(shared.default_deadline_ms);
            let cancel = match deadline_ms {
                Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
                None => CancelToken::new(),
            };
            let job = Job {
                request: req,
                cancel,
                responder: tx.clone(),
                // cirstag-lint: allow(nondeterminism) -- request timing/deadline bookkeeping; responses carry it as diagnostics only
                enqueued: Instant::now(),
            };
            match shared.queue.try_push(job) {
                Admit::Queued => {}
                Admit::Shed => {
                    ServerStats::bump(&shared.stats.shed);
                    drop(tx.send(Response::error(
                        id,
                        CODE_SHED,
                        "admission queue full; request shed",
                    )));
                }
                Admit::Closed => {
                    ServerStats::bump(&shared.stats.shed);
                    drop(tx.send(Response::error(
                        id,
                        CODE_SHED,
                        "daemon is shutting down; request refused",
                    )));
                }
            }
        }
    }
}

/// The `health` payload.
fn health_body(shared: &Shared) -> Value {
    Value::Object(vec![
        ("alive".to_string(), Value::Bool(true)),
        (
            "workers".to_string(),
            Value::UInt(u64::try_from(shared.workers).unwrap_or(u64::MAX)),
        ),
        (
            "queue_depth".to_string(),
            Value::UInt(u64::try_from(shared.queue.depth()).unwrap_or(u64::MAX)),
        ),
        (
            "designs".to_string(),
            Value::UInt(u64::try_from(shared.designs.len()).unwrap_or(u64::MAX)),
        ),
        (
            "uptime_ms".to_string(),
            // cirstag-lint: allow(nondeterminism) -- request timing/deadline bookkeeping; responses carry it as diagnostics only
            Value::UInt(millis(shared.started.elapsed())),
        ),
    ])
}

/// Executes one admitted job end to end and builds its response.
fn handle_job(shared: &Shared, job: &Job) -> Response {
    let req = &job.request;
    // cirstag-lint: allow(nondeterminism) -- request timing/deadline bookkeeping; responses carry it as diagnostics only
    let queue_wait = job.enqueued.elapsed();
    // Failpoint `serve/worker-panic`: drive the panic-isolation boundary
    // from chaos tests without corrupting real numeric state.
    if fail::check("serve/worker-panic").is_some() {
        // cirstag-lint: allow(no-panic-in-lib) -- deliberate injected panic behind the failpoints feature; caught by the worker's catch_unwind isolation boundary
        panic!("injected worker panic (serve/worker-panic)");
    }
    if job.cancel.is_cancelled() {
        return Response::error(
            req.id,
            CODE_DEADLINE,
            "deadline expired before the request was scheduled",
        );
    }
    let Some(netlist) = req.netlist.as_deref() else {
        return Response::error(req.id, CODE_BAD_REQUEST, "missing netlist");
    };
    let design = match shared.designs.get_or_build(netlist, req.epochs) {
        Ok(d) => d,
        Err(e) => return Response::error(req.id, CODE_BAD_REQUEST, e.to_string()),
    };
    let best_effort = req.best_effort.unwrap_or(shared.base_best_effort);
    // One thread per analysis: the rayon pool is process-global, and
    // concurrent workers must not fight over it.
    let config = analysis_config(design.graph.num_nodes(), 1, best_effort);
    // cirstag-lint: allow(nondeterminism) -- request timing/deadline bookkeeping; responses carry it as diagnostics only
    let started = Instant::now();
    match req.verb {
        Verb::Sweep => {
            let mut results = Vec::with_capacity(req.dmd_s.len());
            for &s in &req.dmd_s {
                let cfg = CirStagConfig {
                    num_eigenpairs: s,
                    ..config
                };
                let report = CirStag::new(cfg).analyze_cached(
                    &design.graph,
                    Some(&design.features),
                    &design.embedding,
                    &shared.cache,
                    Some(&job.cancel),
                );
                match report {
                    Ok(r) => results.push(Value::Object(vec![
                        (
                            "s".to_string(),
                            Value::UInt(u64::try_from(s).unwrap_or(u64::MAX)),
                        ),
                        (
                            "zeta1".to_string(),
                            Value::Float(r.eigenvalues.first().copied().unwrap_or(0.0)),
                        ),
                        ("degraded".to_string(), Value::Bool(r.degraded)),
                        (
                            "cache_hits".to_string(),
                            Value::UInt(u64::try_from(r.timings.cache_hits).unwrap_or(u64::MAX)),
                        ),
                    ])),
                    Err(e) => return pipeline_error(req.id, &e),
                }
            }
            Response::ok(
                req.id,
                Value::Object(vec![
                    ("design".to_string(), Value::Str(design.name.clone())),
                    (
                        "nodes".to_string(),
                        Value::UInt(u64::try_from(design.graph.num_nodes()).unwrap_or(u64::MAX)),
                    ),
                    ("results".to_string(), Value::Array(results)),
                    ("policy".to_string(), policy_value(best_effort)),
                    ("queue_wait_ms".to_string(), Value::UInt(millis(queue_wait))),
                    (
                        "elapsed_ms".to_string(),
                        // cirstag-lint: allow(nondeterminism) -- request timing/deadline bookkeeping; responses carry it as diagnostics only
                        Value::UInt(millis(started.elapsed())),
                    ),
                ]),
            )
        }
        Verb::Delta => handle_delta(
            shared,
            req,
            &design,
            config,
            best_effort,
            queue_wait,
            started,
            &job.cancel,
        ),
        _ => {
            let report = CirStag::new(config).analyze_cached(
                &design.graph,
                Some(&design.features),
                &design.embedding,
                &shared.cache,
                Some(&job.cancel),
            );
            match report {
                Ok(r) => Response::ok(
                    req.id,
                    analyze_body(&design, &r, req.top, best_effort, queue_wait, started),
                ),
                Err(e) => pipeline_error(req.id, &e),
            }
        }
    }
}

/// Partition count used for `delta` requests that do not carry their own.
const DEFAULT_DELTA_PARTITIONS: usize = 8;

/// Executes one `delta` request: partitions the prepared base design,
/// applies the netlist-delta ops, and re-scores partition-by-partition
/// against the shared artifact cache so only dirty partitions (plus halo)
/// recompute. The partitioning itself is deterministic and cheap relative
/// to a pipeline stage, so it is rebuilt per request instead of being
/// cached alongside the design.
#[allow(clippy::too_many_arguments)]
fn handle_delta(
    shared: &Shared,
    req: &Request,
    design: &PreparedDesign,
    config: CirStagConfig,
    best_effort: bool,
    queue_wait: Duration,
    started: Instant,
    cancel: &CancelToken,
) -> Response {
    let Some(delta_text) = req.delta.as_deref() else {
        return Response::error(req.id, CODE_BAD_REQUEST, "missing delta");
    };
    let netlist_delta = match NetlistDelta::from_json(delta_text) {
        Ok(d) => d,
        Err(e) => return Response::error(req.id, CODE_BAD_REQUEST, e.to_string()),
    };
    let pconfig = PartitionConfig {
        num_partitions: req.partitions.unwrap_or(DEFAULT_DELTA_PARTITIONS),
        ..PartitionConfig::default()
    };
    if let Err(e) = pconfig.validate(design.graph.num_nodes()) {
        return Response::error(req.id, CODE_BAD_REQUEST, e.to_string());
    }
    let partitioning = match partition_graph(&design.graph, &pconfig) {
        Ok(p) => p,
        Err(e) => return Response::error(req.id, CODE_BAD_REQUEST, e.to_string()),
    };
    let outcome = match apply_delta(
        &design.graph,
        Some(&design.features),
        &netlist_delta,
        &partitioning,
    ) {
        Ok(o) => o,
        Err(e) => return Response::error(req.id, CODE_BAD_REQUEST, e.to_string()),
    };
    let Some(features) = outcome.features else {
        return Response::error(req.id, CODE_INTERNAL, "delta lost the feature matrix");
    };
    let report = analyze_partitioned(
        &config,
        &outcome.graph,
        Some(&features),
        &design.embedding,
        &partitioning.assignment,
        partitioning.num_partitions,
        partitioning.halo_depth,
        Some(&shared.cache),
        Some(cancel),
    );
    match report {
        Ok(r) => Response::ok(
            req.id,
            delta_body(
                design,
                &r,
                &outcome.touched_partitions,
                req.top,
                best_effort,
                queue_wait,
                started,
            ),
        ),
        Err(e) => pipeline_error(req.id, &e),
    }
}

/// `"strict"`/`"best-effort"` for response bodies.
fn policy_value(best_effort: bool) -> Value {
    Value::Str(if best_effort { "best-effort" } else { "strict" }.to_string())
}

/// Maps a pipeline error onto a wire response.
fn pipeline_error(id: u64, e: &CirStagError) -> Response {
    match e {
        CirStagError::Cancelled { .. } => Response::error(id, CODE_DEADLINE, e.to_string()),
        CirStagError::InvalidArgument { .. } => {
            Response::error(id, CODE_BAD_REQUEST, e.to_string())
        }
        _ => Response::error(id, CODE_INTERNAL, format!("analysis failed: {e}")),
    }
}

/// The ranking head shared by the `analyze` and `delta` payloads: the
/// number of nodes in the `top` fraction, and the first 20 of them with
/// their scores.
fn top_head(node_scores: &[f64], top: f64) -> (Value, Value) {
    let unstable = cirstag::top_fraction(node_scores, top, None);
    let head = unstable
        .iter()
        .take(20)
        .map(|&i| {
            Value::Object(vec![
                (
                    "node".to_string(),
                    Value::UInt(u64::try_from(i).unwrap_or(u64::MAX)),
                ),
                (
                    "score".to_string(),
                    Value::Float(node_scores.get(i).copied().unwrap_or(0.0)),
                ),
            ])
        })
        .collect();
    (
        Value::UInt(u64::try_from(unstable.len()).unwrap_or(u64::MAX)),
        Value::Array(head),
    )
}

/// The `analyze` payload: ranking head plus run metadata.
fn analyze_body(
    design: &PreparedDesign,
    report: &StabilityReport,
    top: f64,
    best_effort: bool,
    queue_wait: Duration,
    started: Instant,
) -> Value {
    let (unstable_count, head) = top_head(&report.node_scores, top);
    let mut fields = vec![
        ("design".to_string(), Value::Str(design.name.clone())),
        (
            "nodes".to_string(),
            Value::UInt(u64::try_from(design.graph.num_nodes()).unwrap_or(u64::MAX)),
        ),
        ("degraded".to_string(), Value::Bool(report.degraded)),
        ("policy".to_string(), policy_value(best_effort)),
        (
            "zeta1".to_string(),
            Value::Float(report.eigenvalues.first().copied().unwrap_or(0.0)),
        ),
        ("unstable_count".to_string(), unstable_count),
        ("top".to_string(), head),
        (
            "cache_hits".to_string(),
            Value::UInt(u64::try_from(report.timings.cache_hits).unwrap_or(u64::MAX)),
        ),
        (
            "cache_misses".to_string(),
            Value::UInt(u64::try_from(report.timings.cache_misses).unwrap_or(u64::MAX)),
        ),
        (
            "events".to_string(),
            Value::UInt(u64::try_from(report.diagnostics.events.len()).unwrap_or(u64::MAX)),
        ),
        ("queue_wait_ms".to_string(), Value::UInt(millis(queue_wait))),
        (
            "elapsed_ms".to_string(),
            // cirstag-lint: allow(nondeterminism) -- request timing/deadline bookkeeping; responses carry it as diagnostics only
            Value::UInt(millis(started.elapsed())),
        ),
    ];
    if design.r2.is_finite() {
        fields.push(("r2".to_string(), Value::Float(design.r2)));
    }
    Value::Object(fields)
}

/// The `delta` payload: ranking head plus the per-partition recompute
/// breakdown (which regions were invalidated, which replayed from cache).
fn delta_body(
    design: &PreparedDesign,
    report: &PartitionedReport,
    touched_partitions: &[usize],
    top: f64,
    best_effort: bool,
    queue_wait: Duration,
    started: Instant,
) -> Value {
    let (unstable_count, head) = top_head(&report.node_scores, top);
    let as_uint_array = |ids: &[u64]| Value::Array(ids.iter().map(|&i| Value::UInt(i)).collect());
    let touched: Vec<u64> = touched_partitions
        .iter()
        .map(|&p| u64::try_from(p).unwrap_or(u64::MAX))
        .collect();
    let recomputed: Vec<u64> = report.recomputed().iter().map(|&p| u64::from(p)).collect();
    Value::Object(vec![
        ("design".to_string(), Value::Str(design.name.clone())),
        (
            "nodes".to_string(),
            Value::UInt(u64::try_from(design.graph.num_nodes()).unwrap_or(u64::MAX)),
        ),
        (
            "partitions".to_string(),
            Value::UInt(u64::try_from(report.num_partitions).unwrap_or(u64::MAX)),
        ),
        (
            "halo_depth".to_string(),
            Value::UInt(u64::try_from(report.halo_depth).unwrap_or(u64::MAX)),
        ),
        ("root".to_string(), Value::Str(report.root.hex())),
        ("touched_partitions".to_string(), as_uint_array(&touched)),
        (
            "recomputed_partitions".to_string(),
            as_uint_array(&recomputed),
        ),
        (
            "cache_hits".to_string(),
            Value::UInt(u64::try_from(report.cache_hits()).unwrap_or(u64::MAX)),
        ),
        (
            "cache_misses".to_string(),
            Value::UInt(u64::try_from(report.cache_misses()).unwrap_or(u64::MAX)),
        ),
        ("degraded".to_string(), Value::Bool(report.degraded)),
        ("policy".to_string(), policy_value(best_effort)),
        ("unstable_count".to_string(), unstable_count),
        ("top".to_string(), head),
        ("queue_wait_ms".to_string(), Value::UInt(millis(queue_wait))),
        (
            "elapsed_ms".to_string(),
            // cirstag-lint: allow(nondeterminism) -- request timing/deadline bookkeeping; responses carry it as diagnostics only
            Value::UInt(millis(started.elapsed())),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{run_load, LoadConfig};
    use cirstag_circuit::{generate_circuit, write_netlist, CellLibrary, GeneratorConfig};

    fn tiny_netlist() -> String {
        let library = CellLibrary::standard();
        let netlist = generate_circuit(
            &library,
            &GeneratorConfig {
                num_gates: 30,
                ..Default::default()
            },
            11,
        )
        .unwrap();
        write_netlist(&netlist, &library)
    }

    fn spawn_daemon(config: ServeConfig) -> (String, std::thread::JoinHandle<String>) {
        let server = Server::bind(&config).unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || {
            let mut out = Vec::new();
            server.run(&mut out).unwrap();
            String::from_utf8(out).unwrap()
        });
        (addr, handle)
    }

    #[test]
    fn daemon_answers_concurrent_load_and_drains_cleanly() {
        let (addr, daemon) = spawn_daemon(ServeConfig {
            workers: 2,
            ..Default::default()
        });
        let report = run_load(&LoadConfig {
            addr,
            requests: 12,
            clients: 3,
            netlist: tiny_netlist(),
            epochs: 6,
            shutdown: true,
            ..Default::default()
        })
        .unwrap();
        assert!(report.fully_answered(), "{}", report.summary());
        assert_eq!(report.ok, 12, "{}", report.summary());
        let log = daemon.join().unwrap();
        assert!(log.contains("listening on"), "{log}");
        assert!(log.contains("drained"), "{log}");
    }

    #[test]
    fn expired_deadline_is_a_typed_504() {
        let (addr, daemon) = spawn_daemon(ServeConfig::default());
        let report = run_load(&LoadConfig {
            addr,
            requests: 3,
            clients: 1,
            netlist: tiny_netlist(),
            epochs: 6,
            deadline_ms: Some(0),
            shutdown: true,
            ..Default::default()
        })
        .unwrap();
        assert!(report.fully_answered(), "{}", report.summary());
        assert_eq!(report.timeouts, 3, "{}", report.summary());
        drop(daemon.join().unwrap());
    }

    /// A backlog (one worker, four closed-loop clients, a queue of four)
    /// leaves every request on the policy it asked for, so warm requests
    /// keep replaying their cache entries instead of recomputing under
    /// another policy's keys.
    #[test]
    fn backlog_keeps_each_request_on_its_policy_and_cache_entries() {
        let (addr, daemon) = spawn_daemon(ServeConfig {
            workers: 1,
            queue_capacity: 4,
            ..Default::default()
        });
        let netlist = tiny_netlist();
        let analyze = |id: u64| {
            Request {
                id,
                verb: Verb::Analyze,
                netlist: Some(netlist.clone()),
                epochs: 6,
                dmd_s: vec![4, 8],
                deadline_ms: None,
                top: 0.10,
                best_effort: None,
                delta: None,
                partitions: None,
            }
            .to_line()
            .unwrap()
        };
        // One connection sending `ids` in a closed loop: each request waits
        // for the previous reply.
        let client = |ids: std::ops::Range<u64>| -> Vec<Response> {
            let stream = TcpStream::connect(&addr).unwrap();
            let mut writer = BufWriter::new(stream.try_clone().unwrap());
            let mut reader = BufReader::new(stream);
            ids.map(|id| {
                write_line(&mut writer, analyze(id)).unwrap();
                let mut reply = String::new();
                reader.read_line(&mut reply).unwrap();
                Response::parse(reply.trim_end()).unwrap()
            })
            .collect()
        };
        let warm = client(0..1);
        assert_eq!(warm[0].code, crate::CODE_OK, "{:?}", warm[0].error);
        let client = &client;
        let responses: Vec<Response> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..4u64)
                .map(|c| scope.spawn(move || client(1 + 10 * c..11 + 10 * c)))
                .collect();
            clients
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(responses.len(), 40);
        for r in &responses {
            assert_eq!(r.code, crate::CODE_OK, "request {}: {:?}", r.id, r.error);
            let body = r.body.as_ref().unwrap();
            let policy: String = body.field("policy").unwrap();
            assert_eq!(policy, "strict", "request {}: {body:?}", r.id);
            let misses: u64 = body.field("cache_misses").unwrap();
            assert_eq!(misses, 0, "request {}: {body:?}", r.id);
        }
        crate::load::shutdown_daemon(&addr).unwrap();
        drop(daemon.join().unwrap());
    }

    #[test]
    fn control_verbs_answer_inline_and_garbage_gets_400() {
        let (addr, daemon) = spawn_daemon(ServeConfig::default());
        let stream = TcpStream::connect(&addr).unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        let mut reader = BufReader::new(stream);
        let mut exchange = |line: &str| -> Response {
            write_line(&mut writer, line.to_string()).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            Response::parse(reply.trim_end()).unwrap()
        };
        let health = exchange(r#"{"id": 1, "verb": "health"}"#);
        assert_eq!(health.code, crate::CODE_OK);
        let alive: bool = health.body.as_ref().unwrap().field("alive").unwrap();
        assert!(alive);
        let bad = exchange("this is not json");
        assert_eq!(bad.code, CODE_BAD_REQUEST);
        let missing = exchange(r#"{"id": 4, "verb": "analyze"}"#);
        assert_eq!(missing.code, CODE_BAD_REQUEST);
        let stats = exchange(r#"{"id": 2, "verb": "stats"}"#);
        assert_eq!(stats.code, crate::CODE_OK);
        let received: u64 = stats.body.as_ref().unwrap().field("received").unwrap();
        assert!(received >= 4);
        let bad_requests: u64 = stats.body.as_ref().unwrap().field("bad_requests").unwrap();
        assert_eq!(bad_requests, 2);
        let stop = exchange(r#"{"id": 3, "verb": "shutdown"}"#);
        assert_eq!(stop.code, crate::CODE_OK);
        // Close our end; the daemon's connection threads exit on EOF.
        drop(writer);
        drop(reader);
        drop(daemon.join().unwrap());
    }

    #[test]
    fn delta_requests_reuse_the_segmented_cache() {
        let (addr, daemon) = spawn_daemon(ServeConfig {
            workers: 1,
            ..Default::default()
        });
        let stream = TcpStream::connect(&addr).unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        let mut reader = BufReader::new(stream);
        let mut exchange = |line: &str| -> Response {
            write_line(&mut writer, line.to_string()).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            Response::parse(reply.trim_end()).unwrap()
        };
        let delta = cirstag_circuit::NetlistDelta {
            ops: vec![cirstag_circuit::DeltaOp::FeatureDrift {
                node: 0,
                scale: 1.05,
            }],
        };
        let request = |id: u64| Request {
            id,
            verb: Verb::Delta,
            netlist: Some(tiny_netlist()),
            epochs: 6,
            dmd_s: vec![4, 8],
            deadline_ms: None,
            top: 0.10,
            best_effort: None,
            delta: Some(delta.to_json().unwrap()),
            partitions: Some(4),
        };
        // First pass: nothing cached yet, so every partition recomputes.
        let first = exchange(&request(1).to_line().unwrap());
        assert_eq!(first.code, crate::CODE_OK, "{:?}", first.error);
        let body = first.body.as_ref().unwrap();
        let partitions: u64 = body.field("partitions").unwrap();
        assert_eq!(partitions, 4);
        let recomputed: Vec<u64> = body.field("recomputed_partitions").unwrap();
        assert_eq!(recomputed, vec![0, 1, 2, 3]);
        let touched: Vec<u64> = body.field("touched_partitions").unwrap();
        assert!(!touched.is_empty(), "a drift op must touch its partition");
        // Same delta again: every partition replays from the shared cache.
        let second = exchange(&request(2).to_line().unwrap());
        assert_eq!(second.code, crate::CODE_OK, "{:?}", second.error);
        let body = second.body.as_ref().unwrap();
        let recomputed: Vec<u64> = body.field("recomputed_partitions").unwrap();
        assert!(recomputed.is_empty(), "got {recomputed:?}");
        let hits: u64 = body.field("cache_hits").unwrap();
        assert!(hits > 0);
        // Malformed delta ops are a 400, not a worker crash.
        let mut bad = request(3);
        bad.delta = Some("not a delta".to_string());
        let reply = exchange(&bad.to_line().unwrap());
        assert_eq!(reply.code, CODE_BAD_REQUEST);
        let stop = exchange(r#"{"id": 9, "verb": "shutdown"}"#);
        assert_eq!(stop.code, crate::CODE_OK);
        drop(writer);
        drop(reader);
        drop(daemon.join().unwrap());
    }

    #[test]
    fn port_file_records_the_ephemeral_address() {
        let dir = std::env::temp_dir().join(format!("cirstag-serve-pf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pf = dir.join("port");
        let config = ServeConfig {
            port_file: Some(pf.to_string_lossy().into_owned()),
            ..Default::default()
        };
        let (addr, daemon) = spawn_daemon(config);
        let written = std::fs::read_to_string(&pf).unwrap();
        assert_eq!(written.trim(), addr);
        crate::load::shutdown_daemon(&addr).unwrap();
        drop(daemon.join().unwrap());
        drop(std::fs::remove_dir_all(&dir));
    }
}
