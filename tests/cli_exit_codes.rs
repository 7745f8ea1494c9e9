//! CLI exit-code contract: `0` for a clean run, `2` for a degraded
//! best-effort run, `1` (an `Err` from `run`/`parse_args`) for hard errors.

use cirstag_cli::{exit_code, parse_args, run, Command, KnnChoice, RunStatus};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The failpoint registry is process-global, and the test harness runs
/// tests on parallel threads. The test that arms a failpoint and every test
/// whose analysis must not meet one hold this lock, so an armed
/// `solver/geig` cannot fail a clean run.
fn failpoint_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cirstag_exit_codes_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_silent(cmd: &Command) -> Result<RunStatus, cirstag_cli::CliError> {
    let mut sink = Vec::new();
    run(cmd, &mut sink)
}

fn generate(dir: &std::path::Path) -> String {
    let cir = dir.join("design.cir");
    let path = cir.to_str().unwrap().to_string();
    assert_eq!(
        run_silent(&Command::Generate {
            gates: 40,
            seed: 11,
            out: path.clone(),
        })
        .unwrap(),
        RunStatus::Clean
    );
    path
}

fn analyze_cmd(netlist: String, best_effort: bool) -> Command {
    Command::Analyze {
        netlist,
        out: None,
        epochs: 40,
        top: 0.10,
        threads: 2,
        best_effort,
        cache_dir: None,
        knn: KnnChoice::Auto,
        partitions: None,
    }
}

fn partitioned_cmd(netlist: String, partitions: usize, cache_dir: Option<String>) -> Command {
    match analyze_cmd(netlist, false) {
        Command::Analyze {
            netlist,
            out,
            epochs,
            top,
            threads,
            best_effort,
            knn,
            ..
        } => Command::Analyze {
            netlist,
            out,
            epochs,
            top,
            threads,
            best_effort,
            cache_dir,
            knn,
            partitions: Some(partitions),
        },
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn status_to_exit_code_mapping() {
    assert_eq!(exit_code(RunStatus::Clean), 0);
    assert_eq!(exit_code(RunStatus::Degraded), 2);
}

#[test]
fn clean_analyze_run_is_clean() {
    let _serial = failpoint_lock();
    let dir = temp_dir("clean");
    let netlist = generate(&dir);
    let status = run_silent(&analyze_cmd(netlist, false)).unwrap();
    assert_eq!(status, RunStatus::Clean);
    assert_eq!(exit_code(status), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hard_errors_surface_as_err() {
    // Unknown flags fail at parse time; missing inputs fail at run time.
    // Both map to exit code 1 in the binary.
    assert!(parse_args(&["analyze".to_string(), "--bogus".to_string()]).is_err());
    let err = run_silent(&analyze_cmd("/nonexistent/x.cir".to_string(), false)).unwrap_err();
    assert!(err.message.contains("cannot read"), "got: {}", err.message);
}

/// `--partitions` is validated against the design size with the
/// partitioner's typed error before any GNN work starts; all three
/// rejections are hard errors (exit code 1).
#[test]
fn invalid_partition_counts_are_hard_errors() {
    let dir = temp_dir("partitions");
    let netlist = generate(&dir);
    let ws = dir.join("ws").to_str().unwrap().to_string();

    let err = run_silent(&partitioned_cmd(netlist.clone(), 0, Some(ws.clone()))).unwrap_err();
    assert!(err.message.contains("at least 1"), "got: {}", err.message);

    // 40 gates is a ~140-pin design; one partition per pin is absurd under
    // the MIN_PARTITION_NODES floor.
    let err = run_silent(&partitioned_cmd(netlist.clone(), 10_000, Some(ws))).unwrap_err();
    assert!(err.message.contains("absurd"), "got: {}", err.message);

    // The workspace directory is mandatory: without it there is nothing for
    // `cirstag diff` to replay.
    let err = run_silent(&partitioned_cmd(netlist, 2, None)).unwrap_err();
    assert!(err.message.contains("--cache-dir"), "got: {}", err.message);
    std::fs::remove_dir_all(&dir).ok();
}

/// A best-effort run that climbs a fallback ladder must finish with
/// [`RunStatus::Degraded`] (exit code 2), while the same injection under the
/// default strict policy is a hard error.
#[cfg(feature = "failpoints")]
#[test]
fn degraded_best_effort_run_exits_two() {
    use cirstag_suite::core::failpoint as fp;

    let _serial = failpoint_lock();
    let dir = temp_dir("degraded");
    let netlist = generate(&dir);

    fp::reset();
    fp::arm_always("solver/geig", fp::FailAction::Error);
    let status = run_silent(&analyze_cmd(netlist.clone(), true)).unwrap();
    assert_eq!(status, RunStatus::Degraded);
    assert_eq!(exit_code(status), 2);

    fp::reset();
    fp::arm("solver/geig", fp::FailAction::Error, 1);
    assert!(run_silent(&analyze_cmd(netlist, false)).is_err());
    fp::reset();
    std::fs::remove_dir_all(&dir).ok();
}
