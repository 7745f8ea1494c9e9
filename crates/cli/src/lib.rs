//! Command-line front-end for the CirSTAG stack.
//!
//! The `cirstag` binary wraps the library pipeline behind four subcommands:
//!
//! ```text
//! cirstag generate --gates 500 --seed 7 out.cir     # synthetic benchmark
//! cirstag sta design.cir                            # timing report
//! cirstag analyze design.cir --out report.json      # stability scores
//! cirstag dot design.cir --scores report.json       # heat-mapped DOT graph
//! ```
//!
//! Argument parsing is hand-rolled (no CLI dependency) and exposed here so
//! it can be unit-tested; `src/bin/cirstag.rs` is a thin shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;

pub use args::{parse_args, Command, KnnChoice};
pub use commands::{run, RunStatus};

/// Maps a completed run's status to the process exit code: `0` for
/// [`RunStatus::Clean`], `2` for [`RunStatus::Degraded`]. Errors (including
/// argument parse failures) exit `1`.
pub fn exit_code(status: RunStatus) -> u8 {
    match status {
        RunStatus::Clean => 0,
        RunStatus::Degraded => 2,
    }
}

/// CLI error: a message for the user plus the suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Message printed to stderr.
    pub message: String,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

impl CliError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
        }
    }
}

macro_rules! from_error {
    ($($ty:ty),+ $(,)?) => {
        $(impl From<$ty> for CliError {
            fn from(e: $ty) -> Self {
                CliError { message: e.to_string() }
            }
        })+
    };
}

from_error!(
    std::io::Error,
    cirstag::CirStagError,
    cirstag_circuit::CircuitError,
    cirstag_graph::GraphError,
    cirstag_linalg::LinalgError,
    cirstag_serve::ServeError,
);
