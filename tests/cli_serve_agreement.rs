//! The CLI and the daemon run one analysis: `cirstag analyze` on a netlist
//! file and a daemon `analyze` request carrying the same netlist text share
//! the design preparation (GNN training) and the analysis configuration, so
//! ζ₁ and every (node, score) pair of the daemon's top-20 head equal the CLI
//! report bit for bit.

use cirstag_cli::{run, Command, KnnChoice, RunStatus};
use cirstag_suite::core::ReportExport;
use cirstag_suite::serve::{
    shutdown_daemon, Request, Response, ServeConfig, Server, Verb, CODE_OK,
};
use serde::Value;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};

const EPOCHS: usize = 8;

/// One synchronous request/response exchange on a fresh connection.
fn exchange(addr: SocketAddr, request: &Request) -> Response {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = BufWriter::new(stream.try_clone().unwrap());
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{}", request.to_line().unwrap()).unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    Response::parse(reply.trim_end()).unwrap()
}

#[test]
fn cli_report_and_daemon_response_agree_bit_for_bit() {
    let dir = std::env::temp_dir().join("cirstag_cli_serve_agreement");
    std::fs::create_dir_all(&dir).unwrap();
    let netlist = dir.join("design.cir").to_str().unwrap().to_string();
    let report = dir.join("report.json").to_str().unwrap().to_string();
    let mut sink = Vec::new();
    run(
        &Command::Generate {
            gates: 80,
            seed: 29,
            out: netlist.clone(),
        },
        &mut sink,
    )
    .unwrap();
    let status = run(
        &Command::Analyze {
            netlist: netlist.clone(),
            out: Some(report.clone()),
            epochs: EPOCHS,
            top: 0.10,
            threads: 1,
            best_effort: false,
            cache_dir: None,
            knn: KnnChoice::Auto,
            partitions: None,
        },
        &mut sink,
    )
    .unwrap();
    assert_eq!(status, RunStatus::Clean);
    let cli = ReportExport::from_json(&std::fs::read_to_string(&report).unwrap()).unwrap();

    let server = Server::bind(&ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.run(&mut std::io::sink()));
    let response = exchange(
        addr,
        &Request {
            id: 1,
            verb: Verb::Analyze,
            netlist: Some(std::fs::read_to_string(&netlist).unwrap()),
            epochs: EPOCHS,
            // Read by `sweep` only; the wire format needs a valid list.
            dmd_s: vec![4, 8],
            deadline_ms: None,
            top: 0.10,
            best_effort: None,
            delta: None,
            partitions: None,
        },
    );
    shutdown_daemon(&addr.to_string()).unwrap();
    daemon.join().unwrap().unwrap();

    assert_eq!(response.code, CODE_OK, "{:?}", response.error);
    let body = response.body.unwrap();
    assert!(!body.field::<bool>("degraded").unwrap());
    assert_eq!(body.field::<usize>("nodes").unwrap(), cli.node_scores.len());
    let zeta1: f64 = body.field("zeta1").unwrap();
    assert_eq!(zeta1.to_bits(), cli.eigenvalues[0].to_bits(), "ζ₁");
    let Some(Value::Array(head)) = body.get("top") else {
        panic!("analyze body has no top array");
    };
    assert_eq!(head.len(), 20, "the design has fewer than 200 pins");
    for (rank, entry) in head.iter().enumerate() {
        let node: usize = entry.field("node").unwrap();
        let score: f64 = entry.field("score").unwrap();
        assert_eq!(node, cli.ranking[rank], "node at rank {rank}");
        assert_eq!(
            score.to_bits(),
            cli.node_scores[node].to_bits(),
            "score of node {node}"
        );
    }
}
