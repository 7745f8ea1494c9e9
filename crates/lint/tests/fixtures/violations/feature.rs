// Fixture: the two sites the `feature-hygiene` rule must catch — `rayon`
// named outside the `par` seam, and failpoint arming outside the
// `failpoints` feature.

use rayon::prelude::*;

pub fn parallel_sum(xs: &[f64]) -> f64 {
    xs.par_iter().sum()
}

pub fn arm_cg_failure() {
    fail::arm("solver/cg", fail::FailAction::Error, 1);
}
