//! Experiment harnesses reproducing the CirSTAG evaluation (Table I,
//! Table II, Figs. 3–5) plus ablations.
//!
//! The binaries under `src/bin/` drive these harnesses and print the same
//! rows/series the paper reports. Performance is measured by the separate
//! `perfbench/` package, end to end and per layer. See `DESIGN.md`
//! (experiment index) and `EXPERIMENTS.md` (paper-vs-measured) at the
//! workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case_a;
pub mod case_b;
pub mod report;
