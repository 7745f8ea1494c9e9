//! Synthetic load generator / protocol client for `cirstag serve`.
//!
//! Drives a daemon with N concurrent clients issuing `analyze` requests
//! over persistent connections, and reports the answer mix plus latency
//! percentiles. The invariant the generator checks for the CI gate and the
//! bench harness: **every** request is answered with a typed response —
//! served, shed, or timed out — and no connection is dropped.

use crate::protocol::{write_line, Request, Response, Verb, CODE_DEADLINE, CODE_OK, CODE_SHED};
use crate::ServeError;
use std::io::{BufRead, BufReader, BufWriter};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Daemon address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Total requests across all clients.
    pub requests: usize,
    /// Concurrent client connections.
    pub clients: usize,
    /// Netlist text sent with every request.
    pub netlist: String,
    /// GNN training epochs requested.
    pub epochs: usize,
    /// Per-request deadline, when set.
    pub deadline_ms: Option<u64>,
    /// Per-request failure-policy override.
    pub best_effort: Option<bool>,
    /// Send a `shutdown` request after the run completes.
    pub shutdown: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: String::new(),
            requests: 50,
            clients: 8,
            netlist: String::new(),
            epochs: 40,
            deadline_ms: None,
            best_effort: None,
            shutdown: false,
        }
    }
}

/// Aggregated outcome of a load run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests actually sent.
    pub sent: usize,
    /// `200` responses.
    pub ok: usize,
    /// `503` (shed) responses.
    pub shed: usize,
    /// `504` (deadline) responses.
    pub timeouts: usize,
    /// Any other typed error response.
    pub failed: usize,
    /// Requests with no response (connection error mid-flight) plus
    /// connections that could not be established. Must be zero against a
    /// healthy daemon.
    pub transport_errors: usize,
    /// Median answer latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile answer latency, milliseconds.
    pub p99_ms: f64,
    /// Worst answer latency, milliseconds.
    pub max_ms: f64,
    /// Wall-clock of the whole run, milliseconds.
    pub wall_ms: f64,
}

impl LoadReport {
    /// `true` when every sent request got a typed answer and no transport
    /// error occurred.
    pub fn fully_answered(&self) -> bool {
        self.transport_errors == 0 && self.ok + self.shed + self.timeouts + self.failed == self.sent
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} sent | {} ok | {} shed | {} timeout | {} failed | {} transport errors | \
             p50 {:.1}ms p99 {:.1}ms max {:.1}ms | wall {:.0}ms",
            self.sent,
            self.ok,
            self.shed,
            self.timeouts,
            self.failed,
            self.transport_errors,
            self.p50_ms,
            self.p99_ms,
            self.max_ms,
            self.wall_ms
        )
    }
}

struct ClientOutcome {
    sent: usize,
    ok: usize,
    shed: usize,
    timeouts: usize,
    failed: usize,
    transport_errors: usize,
    latencies_ms: Vec<f64>,
}

/// Connects with retries — the daemon may still be binding when a script
/// launches the generator right after it.
fn connect_with_retry(addr: &str) -> Result<TcpStream, ServeError> {
    let mut last = String::new();
    for _ in 0..40 {
        match TcpStream::connect(addr) {
            Ok(s) => {
                // Every request leaves in one write (`write_line`), so
                // Nagle's algorithm has nothing to coalesce. Left on, it
                // can still hold back the last partial segment of a request
                // longer than one TCP segment until the daemon acknowledges
                // the rest. Best effort: a socket that refuses the option
                // still works, only slower.
                drop(s.set_nodelay(true));
                return Ok(s);
            }
            Err(e) => {
                last = e.to_string();
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    Err(ServeError::io(format!("connect {addr}: {last}")))
}

/// One client: a persistent connection issuing its request share serially.
fn run_client(cfg: &LoadConfig, client: usize, count: usize) -> ClientOutcome {
    let mut outcome = ClientOutcome {
        sent: 0,
        ok: 0,
        shed: 0,
        timeouts: 0,
        failed: 0,
        transport_errors: 0,
        latencies_ms: Vec::with_capacity(count),
    };
    let stream = match connect_with_retry(&cfg.addr) {
        Ok(s) => s,
        Err(_) => {
            outcome.transport_errors += count;
            outcome.sent = count;
            return outcome;
        }
    };
    let Ok(read_half) = stream.try_clone() else {
        outcome.transport_errors += count;
        outcome.sent = count;
        return outcome;
    };
    let mut writer = BufWriter::new(stream);
    let mut reader = BufReader::new(read_half);
    for seq in 0..count {
        let id = u64::try_from(client * 1_000_000 + seq + 1).unwrap_or(u64::MAX);
        let request = Request {
            id,
            verb: Verb::Analyze,
            netlist: Some(cfg.netlist.clone()),
            epochs: cfg.epochs,
            dmd_s: vec![4, 8],
            deadline_ms: cfg.deadline_ms,
            top: 0.10,
            best_effort: cfg.best_effort,
            delta: None,
            partitions: None,
        };
        let Ok(line) = request.to_line() else {
            outcome.transport_errors += 1;
            outcome.sent += 1;
            continue;
        };
        outcome.sent += 1;
        // cirstag-lint: allow(nondeterminism) -- load-generator latency measurement; client-side diagnostics only
        let t0 = Instant::now();
        if write_line(&mut writer, line).is_err() {
            outcome.transport_errors += 1;
            continue;
        }
        // Serial per connection: the next response line is ours (the
        // daemon may interleave only across *connections*).
        let mut answered = false;
        let mut reply = String::new();
        loop {
            reply.clear();
            match reader.read_line(&mut reply) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let Ok(resp) = Response::parse(reply.trim_end()) else {
                continue;
            };
            if resp.id != id {
                continue; // stale line from a previous aborted exchange
            }
            // cirstag-lint: allow(nondeterminism) -- load-generator latency measurement; client-side diagnostics only
            let elapsed = t0.elapsed().as_secs_f64() * 1e3;
            outcome.latencies_ms.push(elapsed);
            match resp.code {
                CODE_OK => outcome.ok += 1,
                CODE_SHED => outcome.shed += 1,
                CODE_DEADLINE => outcome.timeouts += 1,
                _ => outcome.failed += 1,
            }
            answered = true;
            break;
        }
        if !answered {
            outcome.transport_errors += 1;
        }
    }
    outcome
}

/// Percentile of a sorted latency slice; `p` in `[0, 100]`.
fn percentile(sorted: &[f64], p: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (p * (sorted.len() - 1)) / 100;
    sorted.get(idx).copied().unwrap_or(0.0)
}

/// Runs the full load: `cfg.clients` concurrent connections splitting
/// `cfg.requests` requests, then (optionally) a graceful `shutdown`.
///
/// # Errors
///
/// [`ServeError::Io`] only for setup-level failures (e.g. the shutdown
/// connection); per-request transport problems are *counted*, not raised,
/// so the caller can assert on [`LoadReport::transport_errors`].
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport, ServeError> {
    let clients = cfg.clients.max(1);
    let total = cfg.requests;
    // cirstag-lint: allow(nondeterminism) -- load-generator latency measurement; client-side diagnostics only
    let started = Instant::now();
    let mut handles = Vec::with_capacity(clients);
    for client in 0..clients {
        // Spread the remainder over the first `total % clients` clients.
        let count = total / clients + usize::from(client < total % clients);
        let cfg = cfg.clone();
        handles.push(std::thread::spawn(move || run_client(&cfg, client, count)));
    }
    let mut report = LoadReport::default();
    let mut latencies: Vec<f64> = Vec::with_capacity(total);
    for h in handles {
        let Ok(outcome) = h.join() else {
            return Err(ServeError::io("load client thread panicked"));
        };
        report.sent += outcome.sent;
        report.ok += outcome.ok;
        report.shed += outcome.shed;
        report.timeouts += outcome.timeouts;
        report.failed += outcome.failed;
        report.transport_errors += outcome.transport_errors;
        latencies.extend(outcome.latencies_ms);
    }
    latencies.sort_by(f64::total_cmp);
    report.p50_ms = percentile(&latencies, 50);
    report.p99_ms = percentile(&latencies, 99);
    report.max_ms = latencies.last().copied().unwrap_or(0.0);
    // cirstag-lint: allow(nondeterminism) -- load-generator latency measurement; client-side diagnostics only
    report.wall_ms = started.elapsed().as_secs_f64() * 1e3;
    if cfg.shutdown {
        shutdown_daemon(&cfg.addr)?;
    }
    Ok(report)
}

/// Sends a `shutdown` request and waits for its acknowledgement.
///
/// # Errors
///
/// [`ServeError::Io`] when the daemon cannot be reached.
pub fn shutdown_daemon(addr: &str) -> Result<(), ServeError> {
    let stream = connect_with_retry(addr)?;
    let Ok(read_half) = stream.try_clone() else {
        return Err(ServeError::io(format!("clone shutdown stream to {addr}")));
    };
    let mut writer = BufWriter::new(stream);
    let request = Request {
        id: u64::MAX,
        verb: Verb::Shutdown,
        netlist: None,
        epochs: 0,
        dmd_s: vec![1],
        deadline_ms: None,
        top: 0.5,
        best_effort: None,
        delta: None,
        partitions: None,
    };
    write_line(&mut writer, request.to_line()?)
        .map_err(|e| ServeError::io(format!("send shutdown to {addr}: {e}")))?;
    let mut reply = String::new();
    drop(BufReader::new(read_half).read_line(&mut reply));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_small_samples() {
        assert!((percentile(&[], 50) - 0.0).abs() < 1e-12);
        let one = [7.0];
        assert!((percentile(&one, 50) - 7.0).abs() < 1e-12);
        assert!((percentile(&one, 99) - 7.0).abs() < 1e-12);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((percentile(&ten, 50) - 5.0).abs() < 1e-12);
        assert!((percentile(&ten, 99) - 9.0).abs() < 1e-12);
        assert!((percentile(&ten, 100) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn report_answer_accounting() {
        let mut r = LoadReport {
            sent: 10,
            ok: 7,
            shed: 2,
            timeouts: 1,
            ..Default::default()
        };
        assert!(r.fully_answered());
        r.transport_errors = 1;
        assert!(!r.fully_answered());
        assert!(r.summary().contains("10 sent"));
    }
}
