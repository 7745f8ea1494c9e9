// Fixture: the two idioms the `feature-hygiene` rule enforces — parallel
// work goes through the `par` seam (only `crates/linalg/src/par.rs` names
// `rayon`), and failpoint arming sits behind the `failpoints` feature.

use cirstag_linalg::par;

/// Doubles every element, fanning out across the workspace pool.
pub fn doubled(xs: &[f64]) -> Vec<f64> {
    par::map_indexed(xs.len(), |i| xs.get(i).map_or(0.0, |x| x * 2.0))
}

/// Makes the next CG solve fail, for resilience tests.
#[cfg(feature = "failpoints")]
pub fn arm_cg_failure() {
    fail::arm("solver/cg", fail::FailAction::Error, 1);
}
