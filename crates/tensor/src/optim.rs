//! Optimizers for the MLP substrate.

/// Plain stochastic gradient descent with optional momentum and weight
/// decay, operating on flat parameter/gradient buffers.
///
/// FLOAT's local client update is SGD (`θ ← θ − η ∇L`, paper §2); momentum
/// and decay are provided for completeness and are off by default.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate `η`.
    pub lr: f32,
    /// Momentum coefficient; `0.0` disables momentum.
    pub momentum: f32,
    /// L2 weight-decay coefficient; `0.0` disables decay.
    pub weight_decay: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Create a plain SGD optimizer with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Create an SGD optimizer with momentum and weight decay.
    pub fn with_momentum(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    /// Apply one update step to `params` given `grads`.
    ///
    /// The internal momentum buffer is lazily sized to the parameter count;
    /// switching parameter sizes mid-run resets it.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != grads.len()`.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(
            params.len(),
            grads.len(),
            "parameter/gradient length mismatch"
        );
        self.size_for(params.len());
        self.step_at(0, params, grads);
    }

    /// Lazily size the momentum buffer for a model of `total` parameters
    /// (a no-op without momentum); switching sizes resets it.
    pub(crate) fn size_for(&mut self, total: usize) {
        if self.momentum != 0.0 && self.velocity.len() != total {
            self.velocity = vec![0.0; total];
        }
    }

    /// [`Sgd::step`] over one contiguous segment of the model's
    /// parameters, starting at flat index `off` (which addresses the
    /// momentum buffer). [`Sgd::size_for`] must have been called for the
    /// whole model first. Per element: `g += decay·p`, then
    /// `v = momentum·v + g; g = v`, then `p -= lr·g`, each only when its
    /// coefficient is nonzero; the coefficient tests are loop invariant,
    /// so the plain-SGD loop vectorizes.
    pub(crate) fn step_at(&mut self, off: usize, params: &mut [f32], grads: &[f32]) {
        let (lr, decay, momentum) = (self.lr, self.weight_decay, self.momentum);
        if momentum == 0.0 {
            for (p, &g) in params.iter_mut().zip(grads) {
                let g = if decay != 0.0 { g + decay * *p } else { g };
                *p -= lr * g;
            }
        } else {
            let velocity = &mut self.velocity[off..off + params.len()];
            for ((p, &g), v) in params.iter_mut().zip(grads).zip(velocity) {
                let g = if decay != 0.0 { g + decay * *p } else { g };
                *v = momentum * *v + g;
                *p -= lr * *v;
            }
        }
    }

    /// Clear momentum state (used when a model is re-initialized).
    pub fn reset(&mut self) {
        self.velocity.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_moves_against_gradient() {
        let mut opt = Sgd::new(0.5);
        let mut p = [1.0f32, -1.0];
        opt.step(&mut p, &[2.0, -2.0]);
        assert_eq!(p, [0.0, 0.0]);
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = Sgd::with_momentum(1.0, 0.5, 0.0);
        let mut p = [0.0f32];
        opt.step(&mut p, &[1.0]); // v=1, p=-1
        opt.step(&mut p, &[1.0]); // v=1.5, p=-2.5
        assert!((p[0] + 2.5).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut opt = Sgd::with_momentum(0.1, 0.0, 1.0);
        let mut p = [1.0f32];
        opt.step(&mut p, &[0.0]);
        assert!((p[0] - 0.9).abs() < 1e-6);
    }

    #[test]
    fn reset_clears_velocity() {
        let mut opt = Sgd::with_momentum(1.0, 0.9, 0.0);
        let mut p = [0.0f32];
        opt.step(&mut p, &[1.0]);
        opt.reset();
        let mut q = [0.0f32];
        opt.step(&mut q, &[1.0]);
        assert_eq!(q[0], -1.0);
    }
}
