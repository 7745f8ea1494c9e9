//! Failpoint-driven chaos test for the `cirstag serve` daemon.
//!
//! Replays a request stream against an in-process daemon while a seeded
//! schedule injects faults at the three serve-side failpoints —
//! `serve/accept` (transient accept failures), `serve/worker-panic`
//! (panics inside the worker's job execution), and `cache/disk-corrupt`
//! (truncated artifact writes) — under both the strict and the best-effort
//! base policy. The invariants:
//!
//! * the daemon process never dies: every batch completes and the final
//!   `health`/`shutdown` exchanges succeed;
//! * every request gets a typed response (served, shed, timed out, or a
//!   structured `500`) — no dropped connections;
//! * every caught panic is paired with a worker respawn in `stats`;
//! * artifacts corrupted on disk are quarantined (not trusted, not fatal)
//!   when a fresh daemon reads them back.
//!
//! The failpoint registry is process-global, so the whole test runs under
//! one lock and resets the registry between rounds (see
//! `failure_injection.rs` for the same idiom).

#![cfg(feature = "failpoints")]

use cirstag_suite::circuit::{generate_circuit, write_netlist, CellLibrary, GeneratorConfig};
use cirstag_suite::core::failpoint as fp;
use cirstag_suite::serve::{
    run_load, LoadConfig, Request, Response, ServeConfig, Server, Verb, CODE_OK,
};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

struct Serial {
    _guard: MutexGuard<'static, ()>,
}

impl Drop for Serial {
    fn drop(&mut self) {
        fp::reset();
    }
}

fn serial() -> Serial {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    fp::reset();
    Serial { _guard: guard }
}

fn chaos_netlist() -> String {
    let library = CellLibrary::standard();
    let netlist = generate_circuit(
        &library,
        &GeneratorConfig {
            num_gates: 30,
            ..Default::default()
        },
        13,
    )
    .unwrap();
    write_netlist(&netlist, &library)
}

/// Deterministic LCG driving the injection schedule.
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
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

/// One synchronous request/response exchange on a fresh connection.
fn exchange(addr: &str, request: &Request) -> Response {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = BufWriter::new(stream.try_clone().unwrap());
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{}", request.to_line().unwrap()).unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    Response::parse(reply.trim_end()).unwrap()
}

fn sweep_request(id: u64, netlist: &str, s: usize) -> Request {
    Request {
        id,
        verb: Verb::Sweep,
        netlist: Some(netlist.to_string()),
        epochs: 6,
        dmd_s: vec![s],
        deadline_ms: None,
        top: 0.10,
        best_effort: None,
        delta: None,
        partitions: None,
    }
}

/// Runs the chaos schedule against one daemon and returns the `s` values
/// whose artifacts were written while `cache/disk-corrupt` was armed.
fn chaos_run(best_effort: bool, cache_dir: &std::path::Path, seed: u64) -> Vec<usize> {
    let netlist = chaos_netlist();
    let (addr, daemon) = spawn_daemon(ServeConfig {
        workers: 2,
        queue_capacity: 8,
        best_effort,
        cache_dir: Some(cache_dir.to_string_lossy().into_owned()),
        ..Default::default()
    });

    let mut rng = seed;
    let mut corrupted_s = Vec::new();
    let mut injected_panics = 0u64;
    for round in 0..12 {
        match next(&mut rng) % 4 {
            0 => {
                // Transient accept failures: pending connections ride the
                // kernel backlog, nothing is lost.
                fp::arm("serve/accept", fp::FailAction::Error, 2);
            }
            1 => {
                let times = 1 + (next(&mut rng) % 3) as usize;
                fp::arm("serve/worker-panic", fp::FailAction::Error, times);
            }
            2 => {
                // Corrupt the next artifact write, forced to happen by a
                // sweep with a round-unique subspace size (fresh stage key).
                fp::arm("cache/disk-corrupt", fp::FailAction::Error, 1);
                let s = 3 + round;
                let resp = exchange(&addr, &sweep_request(1000 + round as u64, &netlist, s));
                assert_eq!(resp.code, CODE_OK, "sweep under corruption: {resp:?}");
                corrupted_s.push(s);
            }
            _ => {} // control round: no injection
        }
        let deadline_ms = if next(&mut rng).is_multiple_of(3) {
            Some(1)
        } else {
            None
        };
        let report = run_load(&LoadConfig {
            addr: addr.clone(),
            requests: 6,
            clients: 3,
            netlist: netlist.clone(),
            epochs: 6,
            deadline_ms,
            best_effort: None,
            shutdown: false,
        })
        .unwrap();
        assert!(
            report.fully_answered(),
            "round {round}: unanswered requests: {}",
            report.summary()
        );
        injected_panics += u64::try_from(fp::hits("serve/worker-panic")).unwrap();
        fp::reset();
    }

    // The daemon is still alive and its books balance: every caught panic
    // produced a worker respawn.
    let health = exchange(
        &addr,
        &Request {
            id: 9001,
            verb: Verb::Health,
            netlist: None,
            epochs: 0,
            dmd_s: vec![1],
            deadline_ms: None,
            top: 0.5,
            best_effort: None,
            delta: None,
            partitions: None,
        },
    );
    assert_eq!(health.code, CODE_OK);
    let alive: bool = health.body.as_ref().unwrap().field("alive").unwrap();
    assert!(alive);
    let stats = exchange(
        &addr,
        &Request {
            id: 9002,
            verb: Verb::Stats,
            netlist: None,
            epochs: 0,
            dmd_s: vec![1],
            deadline_ms: None,
            top: 0.5,
            best_effort: None,
            delta: None,
            partitions: None,
        },
    );
    let panics: u64 = stats.body.as_ref().unwrap().field("panics").unwrap();
    let respawns: u64 = stats.body.as_ref().unwrap().field("respawns").unwrap();
    assert_eq!(panics, injected_panics, "every injected panic was caught");
    assert_eq!(respawns, panics, "every caught panic respawned its worker");

    let stop = exchange(
        &addr,
        &Request {
            id: 9003,
            verb: Verb::Shutdown,
            netlist: None,
            epochs: 0,
            dmd_s: vec![1],
            deadline_ms: None,
            top: 0.5,
            best_effort: None,
            delta: None,
            partitions: None,
        },
    );
    assert_eq!(stop.code, CODE_OK);
    let log = daemon.join().unwrap();
    assert!(log.contains("drained"), "{log}");
    corrupted_s
}

#[test]
fn daemon_survives_seeded_fault_injection_under_both_policies() {
    let _s = serial();
    let base = std::env::temp_dir().join(format!("cirstag_serve_chaos_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();

    for (best_effort, seed) in [(false, 0xC1A05u64), (true, 0x5EEDu64)] {
        let cache_dir = base.join(if best_effort { "be" } else { "strict" });
        std::fs::create_dir_all(&cache_dir).unwrap();
        let corrupted_s = chaos_run(best_effort, &cache_dir, seed);
        fp::reset();

        // A fresh daemon on the same cache directory must quarantine the
        // corrupt artifacts — recomputing, never trusting or dying on them.
        let netlist = chaos_netlist();
        let (addr, daemon) = spawn_daemon(ServeConfig {
            workers: 1,
            best_effort,
            cache_dir: Some(cache_dir.to_string_lossy().into_owned()),
            ..Default::default()
        });
        for (i, &s) in corrupted_s.iter().enumerate() {
            let resp = exchange(&addr, &sweep_request(2000 + i as u64, &netlist, s));
            assert_eq!(resp.code, CODE_OK, "replay of corrupted s={s}: {resp:?}");
        }
        cirstag_suite::serve::shutdown_daemon(&addr).unwrap();
        drop(daemon.join().unwrap());
        if !corrupted_s.is_empty() {
            let quarantined = std::fs::read_dir(&cache_dir)
                .unwrap()
                .filter_map(Result::ok)
                .filter(|e| e.path().to_string_lossy().ends_with(".quarantined"))
                .count();
            assert!(
                quarantined >= corrupted_s.len(),
                "expected >= {} quarantined artifacts, found {quarantined}",
                corrupted_s.len()
            );
        }
    }
    std::fs::remove_dir_all(&base).ok();
}
