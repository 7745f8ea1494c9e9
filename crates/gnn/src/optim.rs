//! Optimizers over [`Param`] collections.

use crate::Param;
use cirstag_linalg::DenseMatrix;

/// Adam optimizer (Kingma–Ba) with optional decoupled weight decay and
/// gradient clipping.
///
/// State (first/second moments) is keyed by parameter *position* in the
/// `Vec<&mut Param>` handed to [`Adam::step`], so the caller must pass
/// parameters in a stable order — [`crate::GnnModel`] guarantees this.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub learning_rate: f64,
    /// First-moment decay (default 0.9).
    pub beta1: f64,
    /// Second-moment decay (default 0.999).
    pub beta2: f64,
    /// Numerical-stability constant (default 1e-8).
    pub epsilon: f64,
    /// Decoupled weight decay coefficient (0 disables).
    pub weight_decay: f64,
    /// Global-norm gradient clip (0 disables).
    pub clip_norm: f64,
    t: u64,
    m: Vec<DenseMatrix>,
    v: Vec<DenseMatrix>,
}

impl Adam {
    /// Creates an Adam optimizer with standard β values.
    pub fn new(learning_rate: f64) -> Self {
        Adam {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            weight_decay: 0.0,
            clip_norm: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one update using the gradients currently stored on `params`.
    ///
    /// # Panics
    ///
    /// Panics if the parameter list changes shape between calls.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        self.t += 1;
        if self.m.len() != params.len() {
            self.m = params
                .iter()
                .map(|p| DenseMatrix::zeros(p.value.nrows(), p.value.ncols()))
                .collect();
            self.v = self.m.clone();
        }
        // Optional global-norm clipping.
        let mut scale = 1.0;
        if self.clip_norm > 0.0 {
            let total: f64 = params
                .iter()
                .map(|p| p.grad.as_slice().iter().map(|g| g * g).sum::<f64>())
                .sum::<f64>()
                .sqrt();
            if total > self.clip_norm {
                scale = self.clip_norm / total;
            }
        }
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (idx, p) in params.iter_mut().enumerate() {
            // cirstag-lint: allow(error-hygiene) -- optimizer/parameter shape drift is a programming error; asserting avoids silent state corruption
            assert_eq!(
                p.value.shape(),
                self.m[idx].shape(),
                "parameter shape changed between Adam steps"
            );
            let m = self.m[idx].as_mut_slice();
            let v = self.v[idx].as_mut_slice();
            let grads = p.grad.as_slice().to_vec();
            for (k, val) in p.value.as_mut_slice().iter_mut().enumerate() {
                let g = grads[k] * scale + self.weight_decay * *val;
                m[k] = self.beta1 * m[k] + (1.0 - self.beta1) * g;
                v[k] = self.beta2 * v[k] + (1.0 - self.beta2) * g * g;
                let mhat = m[k] / bc1;
                let vhat = v[k] / bc2;
                *val -= self.learning_rate * mhat / (vhat.sqrt() + self.epsilon);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(x) = (x - 3)² with Adam; must land near 3.
    #[test]
    fn converges_on_quadratic() {
        let mut p = Param::zeros(1, 1);
        let mut adam = Adam::new(0.1);
        for _ in 0..500 {
            let x = p.value.get(0, 0);
            p.grad.set(0, 0, 2.0 * (x - 3.0));
            adam.step(&mut [&mut p]);
        }
        assert!((p.value.get(0, 0) - 3.0).abs() < 1e-3);
        assert_eq!(adam.steps(), 500);
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut p = Param::zeros(1, 1);
        p.value.set(0, 0, 10.0);
        let mut adam = Adam::new(0.1);
        adam.weight_decay = 0.1;
        for _ in 0..200 {
            p.zero_grad(); // gradient is zero; only decay acts
            adam.step(&mut [&mut p]);
        }
        assert!(p.value.get(0, 0).abs() < 10.0);
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let mut p = Param::zeros(1, 1);
        p.grad.set(0, 0, 1e9);
        let mut adam = Adam::new(0.1);
        adam.clip_norm = 1.0;
        adam.step(&mut [&mut p]);
        // With clipping, first Adam step magnitude is ≤ lr (bias-corrected).
        assert!(p.value.get(0, 0).abs() <= 0.2);
    }

    #[test]
    fn handles_multiple_params() {
        let mut a = Param::zeros(2, 2);
        let mut b = Param::zeros(1, 3);
        let mut adam = Adam::new(0.05);
        for _ in 0..300 {
            for (i, v) in a.value.clone().as_slice().iter().enumerate() {
                a.grad.as_mut_slice()[i] = 2.0 * (v - 1.0);
            }
            for (i, v) in b.value.clone().as_slice().iter().enumerate() {
                b.grad.as_mut_slice()[i] = 2.0 * (v + 2.0);
            }
            adam.step(&mut [&mut a, &mut b]);
        }
        assert!(a.value.as_slice().iter().all(|v| (v - 1.0).abs() < 1e-2));
        assert!(b.value.as_slice().iter().all(|v| (v + 2.0).abs() < 1e-2));
    }
}
