//! Serve traffic: an in-process daemon with two workers and one prepared
//! design, driven by a closed loop from two persistent client connections.
//!
//! The client sends each request line, newline included, as one write on a
//! `TCP_NODELAY` socket. Sending the line and its `\n` as two writes (as
//! `cirstag_serve::run_load` does) lets Nagle's algorithm hold the second
//! segment until the daemon's delayed ACK fires, which adds ~40 ms to every
//! request: warm `analyze` p50 measured 44 ms that way against 1.8 ms with
//! one write, on a 972-pin design.

use crate::common::{Outcome, Scenario, EPOCHS};
use crate::inputs::{design, serve_ops, ServeOp, SERVE_BLOCK};
use crate::stats::{median, tail, HitRatio, TAIL_PERCENTILE, TAIL_SAMPLES};
use crate::trace;
use cirstag_circuit::{parse_netlist, write_netlist, CellLibrary, TimingGraph};
use cirstag_graph::Graph;
use cirstag_serve::{Request, Response, ServeConfig, ServeError, Server, Verb};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Gates of the served design (~970 pins).
pub const GATES: usize = 300;
/// Daemon worker threads and client connections (one per core on the
/// reference host).
const WORKERS: usize = 2;
const CLIENTS: u64 = 2;

/// A running daemon and the design its clients submit.
pub struct Daemon {
    addr: SocketAddr,
    handle: JoinHandle<Result<(), ServeError>>,
    netlist: String,
    graph: Graph,
}

/// One request's outcome as the client saw it.
struct Sample {
    verb: &'static str,
    latency_ms: f64,
    code: u16,
    queue_wait_ms: f64,
    handle_ms: f64,
    cache_hits: f64,
    cache_misses: f64,
    well_formed: bool,
}

/// Binds the daemon, starts it, and warms it with one `analyze` that
/// prepares the design and fills the cache (set-up).
///
/// # Errors
///
/// Bind, generation or warm-up failures, as text.
pub fn setup(library: &CellLibrary) -> Result<Daemon, String> {
    let netlist = write_netlist(&design(library, GATES)?, library);
    let parsed = parse_netlist(&netlist, library).map_err(|e| e.to_string())?;
    let graph = TimingGraph::new(&parsed, library)
        .and_then(|t| t.to_undirected_graph())
        .map_err(|e| e.to_string())?;
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run(&mut std::io::sink()));
    let daemon = Daemon {
        addr,
        handle,
        netlist,
        graph,
    };
    let mut conn = Conn::open(addr)?;
    let warm = conn.send(&daemon.request(0, &ServeOp::Analyze))?;
    if warm.code != 200 {
        return Err(format!("warm-up analyze answered {}", warm.code));
    }
    Ok(daemon)
}

impl Daemon {
    fn request(&self, id: u64, op: &ServeOp) -> Request {
        let (verb, dmd_s, delta) = match op {
            ServeOp::Analyze => (Verb::Analyze, vec![4, 8], None),
            ServeOp::Sweep(s) => (Verb::Sweep, vec![*s], None),
            ServeOp::Delta(d) => (Verb::Delta, vec![4, 8], d.to_json().ok()),
        };
        Request {
            id,
            verb,
            netlist: Some(self.netlist.clone()),
            epochs: EPOCHS,
            dmd_s,
            deadline_ms: None,
            top: 0.1,
            best_effort: None,
            delta,
            partitions: None,
        }
    }

    /// Sends `shutdown` and waits for the daemon to drain and exit.
    pub fn stop(self, out: &mut Outcome) {
        if let Err(e) = cirstag_serve::shutdown_daemon(&self.addr.to_string()) {
            return out.fail("daemon shutdown", e);
        }
        match self.handle.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => out.fail("daemon exit", e),
            Err(_) => out.fail("daemon exit", "daemon thread panicked"),
        }
    }
}

/// A persistent client connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            stream,
            reader,
            line: String::new(),
        })
    }

    /// Sends one request as a single write and reads its response line.
    fn send(&mut self, request: &Request) -> Result<Response, String> {
        let mut wire = request.to_line().map_err(|e| e.to_string())?;
        wire.push('\n');
        self.stream
            .write_all(wire.as_bytes())
            .map_err(|e| e.to_string())?;
        self.line.clear();
        if self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| e.to_string())?
            == 0
        {
            return Err("daemon closed the connection".to_string());
        }
        let response = Response::parse(self.line.trim_end()).map_err(|e| e.to_string())?;
        if response.id != request.id {
            return Err(format!(
                "response id {} for request {}",
                response.id, request.id
            ));
        }
        Ok(response)
    }
}

fn number(body: &Value, field: &str) -> Option<f64> {
    match body.get(field)? {
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Output checks on a `200` body: the fields every client relies on are
/// present and sane for the verb.
fn well_formed(op: &ServeOp, body: &Value) -> bool {
    let array_len = |field: &str| match body.get(field) {
        Some(Value::Array(a)) => Some(a.len()),
        _ => None,
    };
    let timings = number(body, "elapsed_ms").is_some() && number(body, "queue_wait_ms").is_some();
    timings
        && match op {
            ServeOp::Analyze => {
                number(body, "zeta1").is_some_and(f64::is_finite)
                    && array_len("top").is_some_and(|n| n > 0)
                    && matches!(body.get("degraded"), Some(Value::Bool(false)))
            }
            ServeOp::Sweep(_) => array_len("results") == Some(1),
            // Delta bodies must list the recomputed partitions.
            ServeOp::Delta(_) => {
                array_len("recomputed_partitions").is_some()
                    && array_len("touched_partitions").is_some_and(|n| n > 0)
            }
        }
}

/// One block of one client.
fn client_block(
    daemon: &Daemon,
    conn: &mut Conn,
    index: u64,
    block: usize,
    ops: &[ServeOp],
) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let seq = (block * SERVE_BLOCK + i + 1) as u64;
        let request = daemon.request((index << 32) | seq, op);
        let t = Instant::now();
        let (response, _) = trace::span("serve.request", || conn.send(&request));
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        let response = response?;
        let body = response.body.unwrap_or(Value::Null);
        samples.push(Sample {
            verb: op.verb(),
            latency_ms,
            code: response.code,
            queue_wait_ms: number(&body, "queue_wait_ms").unwrap_or(0.0),
            handle_ms: number(&body, "elapsed_ms").unwrap_or(0.0),
            // Sweep bodies report hits per result and no misses; only
            // analyze and delta bodies carry the full tally.
            cache_hits: number(&body, "cache_hits").unwrap_or(0.0),
            cache_misses: number(&body, "cache_misses").unwrap_or(0.0),
            well_formed: response.code == 200 && well_formed(op, &body),
        });
    }
    Ok(samples)
}

/// The serve scenario: [`TAIL_SAMPLES`] requests in whole blocks, so every
/// run sends the exact mix and the same number of requests however fast
/// the daemon answers. Each step sends one block per client, the clients in
/// parallel on their persistent connections. The traffic is the 80/10/10
/// mix when `mixed`, warm `analyze` requests otherwise. It records
/// `serve_p50_ms`, `serve_tail_ms` (p98, ten samples beyond) and
/// `serve_rps` (over the time spent in its steps).
pub struct Traffic<'a> {
    daemon: &'a Daemon,
    conns: Vec<Conn>,
    streams: Vec<Vec<Vec<ServeOp>>>,
    next: usize,
    busy: Duration,
    samples: Vec<Sample>,
}

impl<'a> Traffic<'a> {
    /// Opens the client connections and draws the request streams. The mix
    /// runs on [`CLIENTS`] connections; the warm-`analyze` segment on one,
    /// because with two its millisecond tail mostly measured which client
    /// the host scheduled first (its spread over ten runs reached 0.28).
    ///
    /// # Errors
    ///
    /// When a connection cannot be opened.
    pub fn new(daemon: &'a Daemon, seed: u64, mixed: bool) -> Result<Self, String> {
        let clients = if mixed { CLIENTS } else { 1 };
        let blocks = TAIL_SAMPLES.div_ceil(SERVE_BLOCK * clients as usize);
        Ok(Traffic {
            daemon,
            conns: (0..clients)
                .map(|_| Conn::open(daemon.addr))
                .collect::<Result<_, _>>()?,
            streams: (0..clients)
                .map(|c| serve_ops(&daemon.graph, blocks, seed, (c, clients), mixed))
                .collect(),
            next: 0,
            busy: Duration::ZERO,
            samples: Vec::new(),
        })
    }
}

impl Scenario for Traffic<'_> {
    fn step(&mut self, out: &mut Outcome) -> bool {
        let block = self.next;
        if self.streams.iter().all(|stream| block >= stream.len()) {
            return false;
        }
        let daemon = self.daemon;
        let t = Instant::now();
        let results: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(&self.streams)
                .enumerate()
                .map(|(c, (conn, stream))| {
                    s.spawn(move || client_block(daemon, conn, c as u64, block, &stream[block]))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".to_string()))
                })
                .collect()
        });
        self.busy += t.elapsed();
        self.next += 1;
        for r in results {
            match r {
                Ok(v) => self.samples.extend(v),
                Err(e) => out.fail("serve client", e),
            }
        }
        true
    }

    fn progress(&self) -> f64 {
        let blocks = self.streams.first().map_or(1, Vec::len);
        self.next as f64 / blocks as f64
    }

    fn finish(&mut self, out: &mut Outcome) {
        let samples = &self.samples;
        for s in samples {
            out.op(s.well_formed, || {
                format!("{} request answered {} or malformed", s.verb, s.code)
            });
        }
        let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
        let completed = samples.iter().filter(|s| s.code == 200).count();
        out.e2e("serve_p50_ms", median(&latencies), "ms");
        match tail(&latencies, TAIL_PERCENTILE) {
            Some(t) => {
                out.e2e("serve_tail_ms", t.value, "ms");
                out.notes.push(format!(
                    "serve: {} requests, tail = p{TAIL_PERCENTILE} ({} samples beyond)",
                    latencies.len(),
                    t.beyond
                ));
            }
            None => out.fail("serve tail", format!("only {} samples", latencies.len())),
        }
        out.e2e(
            "serve_rps",
            completed as f64 / self.busy.as_secs_f64(),
            "req/s",
        );
        if trace::enabled() {
            layer_metrics(samples, out);
        }
    }
}

/// The serve layer's per-layer metrics, from the response bodies.
fn layer_metrics(samples: &[Sample], out: &mut Outcome) {
    // Means, not medians: the body timings have whole-millisecond
    // resolution, so their medians are mostly 0 or 1.
    let mean = |v: Vec<f64>| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.code == 200).collect();
    out.layer(
        "serve.queue_wait_ms",
        mean(ok.iter().map(|s| s.queue_wait_ms).collect()),
        "ms",
    );
    for verb in ["analyze", "sweep", "delta"] {
        let v = ok
            .iter()
            .filter(|s| s.verb == verb)
            .map(|s| s.handle_ms)
            .collect();
        out.layer(&format!("serve.handle_ms.{verb}"), mean(v), "ms");
    }
    let frame = ok
        .iter()
        .map(|s| s.latency_ms - s.queue_wait_ms - s.handle_ms)
        .collect();
    out.layer("serve.frame_ms", mean(frame), "ms");
    let mut cache = HitRatio::default();
    for s in &ok {
        cache.add(s.cache_hits as u64, s.cache_misses as u64);
    }
    out.layer("serve.cache_hit_ratio", cache.ratio(), "1");
    out.layer("serve.cache_hits", cache.hits as f64, "count");
    out.layer("serve.cache_misses", cache.misses as f64, "count");
    let count = |code: u16| samples.iter().filter(|s| s.code == code).count() as f64;
    out.layer("serve.shed", count(503), "count");
    out.layer("serve.timeouts", count(504), "count");
}
