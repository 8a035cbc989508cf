//! The optimizer: Adam, with which the paper trains TableDC and every deep
//! baseline (§4.3).

use tensor::Matrix;

use crate::params::{ParamGrads, ParamId, Params};

/// Numerical-health telemetry of one optimizer step.
#[derive(Debug, Clone)]
pub struct StepStats {
    /// Per-parameter L2 gradient norms, in `grads` order.
    pub grad_norms: Vec<(ParamId, f64)>,
    /// Global gradient L2 norm across all updated parameters.
    pub global_grad_norm: f64,
    /// L2 norm of the updated parameters *before* the step.
    pub param_norm: f64,
    /// L2 norm of the applied update `‖θ_new − θ_old‖`.
    pub update_norm: f64,
    /// First parameter whose gradient contained a NaN/Inf, if any.
    pub nonfinite_grad: Option<ParamId>,
}

impl StepStats {
    /// Update-to-parameter-norm ratio `‖Δθ‖ / (‖θ‖ + 1e-12)` — the scale-
    /// free "effective step size" that flags both frozen training (≈0) and
    /// divergence (≫ learning rate).
    pub fn update_ratio(&self) -> f64 {
        self.update_norm / (self.param_norm + 1e-12)
    }

    /// Records the finite stats into the metrics registry under the
    /// training method's metric prefix (`tabledc`, `sdcn`, …), so fits of
    /// several methods in one process keep separate histograms: one
    /// `<prefix>.nn.grad_norm.<name>` histogram per parameter, plus
    /// `<prefix>.nn.grad_norm` (global norm) and `<prefix>.nn.update_ratio`.
    /// Non-finite values are skipped — they are the health monitor's
    /// story, not a sample.
    pub fn record(&self, prefix: &str, params: &Params) {
        let reg = obs::registry();
        for (id, norm) in &self.grad_norms {
            if norm.is_finite() {
                reg.histogram(&format!("{prefix}.nn.grad_norm.{}", params.name(*id))).record(*norm);
            }
        }
        if self.global_grad_norm.is_finite() {
            reg.histogram(&format!("{prefix}.nn.grad_norm")).record(self.global_grad_norm);
        }
        let ratio = self.update_ratio();
        if ratio.is_finite() {
            reg.histogram(&format!("{prefix}.nn.update_ratio")).record(ratio);
        }
    }

    /// Emits one `nn.grad_norm` trace event for this step of fit `fit`,
    /// carrying the global norm and update ratio, and the baseline's name
    /// as `method` when one is given. Skipped when either value is
    /// non-finite so every emitted `nn.grad_norm` event has finite numeric
    /// fields (`trace_check` enforces this).
    pub fn emit_event(&self, epoch: u64, fit: u64, method: Option<&str>) {
        let ratio = self.update_ratio();
        if self.global_grad_norm.is_finite() && ratio.is_finite() {
            let ev = obs::event("nn.grad_norm").u64("fit", fit);
            let ev = match method {
                Some(m) => ev.str("method", m),
                None => ev,
            };
            ev.u64("epoch", epoch).f64("global", self.global_grad_norm).f64("update_ratio", ratio).emit();
        }
    }
}

/// Adam (Kingma & Ba) with bias correction — the optimizer of §4.3.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate (paper uses 1e-3-scale rates typical for Adam).
    pub lr: f64,
    /// Exponential decay for the first moment.
    pub beta1: f64,
    /// Exponential decay for the second moment.
    pub beta2: f64,
    /// Numerical stabilizer.
    pub eps: f64,
    t: u64,
    m: Vec<Option<Matrix>>,
    v: Vec<Option<Matrix>>,
}

impl Adam {
    /// Adam with standard hyper-parameters (β₁=0.9, β₂=0.999, ε=1e-8).
    pub fn new(lr: f64) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Applies one update step to every parameter that has a gradient in
    /// a backward pass ([`crate::BoundParams::backward`]), reading the
    /// gradients in place. Updates every parameter element by the same
    /// arithmetic, over fixed chunks of `ADAM_CHUNK` values run in parallel
    /// on the global pool: bit-identical for every thread count.
    pub fn step(&mut self, params: &mut Params, grads: &ParamGrads) {
        self.step_pairs(params, &grads.iter().collect::<Vec<_>>());
    }

    /// [`Adam::step`] while measuring per-parameter and global gradient L2
    /// norms, the update-to-parameter-norm ratio, and whether any gradient
    /// carried a non-finite entry.
    ///
    /// The measurement is three extra passes over the updated parameters
    /// (gradient norms, pre-step parameter snapshot, post-step delta norm) —
    /// negligible next to the backward pass that produced the gradients, so
    /// callers run it unconditionally and the health policy only decides what
    /// to *do* with the numbers.
    pub fn step_instrumented(&mut self, params: &mut Params, grads: &ParamGrads) -> StepStats {
        self.step_pairs_instrumented(params, &grads.iter().collect::<Vec<_>>())
    }

    /// [`Adam::step`] given `(id, gradient)` pairs, each id at most once.
    fn step_pairs(&mut self, params: &mut Params, grads: &[(ParamId, &Matrix)]) {
        self.t += 1;
        let step = AdamStep {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            bc1: 1.0 - self.beta1.powi(self.t as i32),
            bc2: 1.0 - self.beta2.powi(self.t as i32),
        };
        for (id, g) in grads {
            self.ensure_state(*id, g.shape());
        }
        // Disjoint mutable views of the stepped parameters and moments.
        let mut ws: Vec<Option<&mut Matrix>> = params.values_mut().iter_mut().map(Some).collect();
        let mut ms: Vec<Option<&mut Matrix>> = self.m.iter_mut().map(Option::as_mut).collect();
        let mut vs: Vec<Option<&mut Matrix>> = self.v.iter_mut().map(Option::as_mut).collect();
        let mut chunks: Vec<AdamChunk<'_>> = Vec::new();
        for (id, g) in grads {
            let w = ws[id.0].take().expect("Adam::step: parameter listed twice");
            let m = ms[id.0].take().expect("state ensured");
            let v = vs[id.0].take().expect("state ensured");
            assert_eq!(w.shape(), g.shape(), "Adam::step: gradient shape of {id:?}");
            let parts = w.as_mut_slice().chunks_mut(ADAM_CHUNK).zip(g.as_slice().chunks(ADAM_CHUNK));
            let moments = m.as_mut_slice().chunks_mut(ADAM_CHUNK).zip(v.as_mut_slice().chunks_mut(ADAM_CHUNK));
            chunks.extend(parts.zip(moments).map(|((w, g), (m, v))| (w, g, m, v)));
        }
        runtime::par_for_rows(runtime::global(), &mut chunks, 1, 1, |_, chunk| step.update(&mut chunk[0]));
    }

    /// [`Adam::step_instrumented`] given `(id, gradient)` pairs.
    fn step_pairs_instrumented(&mut self, params: &mut Params, grads: &[(ParamId, &Matrix)]) -> StepStats {
        let mut grad_norms = Vec::with_capacity(grads.len());
        let mut global_sq = 0.0;
        let mut nonfinite_grad = None;
        for (id, g) in grads {
            let sq = g.frobenius_sq();
            if !sq.is_finite() && nonfinite_grad.is_none() {
                nonfinite_grad = Some(*id);
            }
            grad_norms.push((*id, sq.sqrt()));
            global_sq += sq;
        }
        let before: Vec<(ParamId, Matrix)> =
            grads.iter().map(|(id, _)| (*id, params.get(*id).clone())).collect();
        let param_sq: f64 = before.iter().map(|(_, m)| m.frobenius_sq()).sum();
        self.step_pairs(params, grads);
        let update_sq: f64 = before
            .iter()
            .map(|(id, old)| {
                old.as_slice()
                    .iter()
                    .zip(params.get(*id).as_slice())
                    .map(|(a, b)| (b - a) * (b - a))
                    .sum::<f64>()
            })
            .sum();
        StepStats {
            grad_norms,
            global_grad_norm: global_sq.sqrt(),
            param_norm: param_sq.sqrt(),
            update_norm: update_sq.sqrt(),
            nonfinite_grad,
        }
    }

    fn ensure_state(&mut self, id: ParamId, shape: (usize, usize)) {
        if self.m.len() <= id.0 {
            self.m.resize_with(id.0 + 1, || None);
            self.v.resize_with(id.0 + 1, || None);
        }
        if self.m[id.0].is_none() {
            self.m[id.0] = Some(Matrix::zeros(shape.0, shape.1));
            self.v[id.0] = Some(Matrix::zeros(shape.0, shape.1));
        }
    }
}

/// Values per pool block of a parallel Adam step: a fixed chunking, so the
/// schedule never depends on the thread count (and no output depends on
/// the schedule: every element's update reads only its own state).
const ADAM_CHUNK: usize = 8192;

/// One Adam step's constants.
#[derive(Clone, Copy)]
struct AdamStep {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    bc1: f64,
    bc2: f64,
}

/// A chunk of one parameter with its gradient and moments.
type AdamChunk<'a> = (&'a mut [f64], &'a [f64], &'a mut [f64], &'a mut [f64]);

impl AdamStep {
    fn update(self, (w, g, m, v): &mut AdamChunk<'_>) {
        for (((w, gi), mi), vi) in w.iter_mut().zip(g.iter()).zip(m.iter_mut()).zip(v.iter_mut()) {
            *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
            *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
            let m_hat = *mi / self.bc1;
            let v_hat = *vi / self.bc2;
            *w -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograd::Tape;

    /// Minimizes f(w) = (w − 3)² from w = 0 with Adam and returns the
    /// final value of w.
    fn minimize(opt: &mut Adam, steps: usize) -> f64 {
        let mut params = Params::new();
        let w = params.register(Matrix::zeros(1, 1));
        for _ in 0..steps {
            let tape = Tape::new();
            let bound = params.bind(&tape);
            let diff = tape.add_scalar(bound.var(w), -3.0);
            let loss = tape.sum(tape.square(diff));
            let grads = bound.backward(loss);
            opt.step(&mut params, &grads);
        }
        params.get(w)[(0, 0)]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = minimize(&mut Adam::new(0.1), 500);
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn adam_first_step_has_unit_scale() {
        // With bias correction, the first Adam step is ≈ lr regardless of
        // gradient magnitude.
        let mut params = Params::new();
        let w = params.register(Matrix::zeros(1, 1));
        let mut adam = Adam::new(0.01);
        adam.step_pairs(&mut params, &[(w, &Matrix::full(1, 1, 1000.0))]);
        assert!((params.get(w)[(0, 0)] + 0.01).abs() < 1e-6);
    }

    #[test]
    fn chunked_adam_step_matches_the_elementwise_update_bitwise() {
        // Longer than several chunks, with a short tail chunk.
        let len = 3 * ADAM_CHUNK + 17;
        let r = &mut tensor::random::rng(9);
        let w0 = tensor::random::randn(1, len, r);
        let grads: Vec<Matrix> = (0..3).map(|_| tensor::random::randn(1, len, r)).collect();
        let mut params = Params::new();
        let w = params.register(w0.clone());
        let bias = params.register(Matrix::zeros(1, 3));
        let mut adam = Adam::new(0.01);
        let (mut want, mut m, mut v) = (w0.as_slice().to_vec(), vec![0.0; len], vec![0.0; len]);
        for (t, g) in grads.iter().enumerate() {
            adam.step_pairs(&mut params, &[(w, g), (bias, &Matrix::ones(1, 3))]);
            let bc1 = 1.0 - adam.beta1.powi(t as i32 + 1);
            let bc2 = 1.0 - adam.beta2.powi(t as i32 + 1);
            for (((x, gi), mi), vi) in want.iter_mut().zip(g.as_slice()).zip(&mut m).zip(&mut v) {
                *mi = adam.beta1 * *mi + (1.0 - adam.beta1) * gi;
                *vi = adam.beta2 * *vi + (1.0 - adam.beta2) * gi * gi;
                *x -= adam.lr * (*mi / bc1) / ((*vi / bc2).sqrt() + adam.eps);
            }
        }
        let got: Vec<u64> = params.get(w).as_slice().iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
    }

    /// Bias correction pinned against hand-computed moment values for the
    /// first two steps (β₁ = 0.9, β₂ = 0.999, gradients g₁ = 1, g₂ = 0.5).
    #[test]
    fn adam_bias_correction_matches_hand_computation() {
        let lr = 0.01;
        let eps = 1e-8;
        let mut params = Params::new();
        let w = params.register(Matrix::zeros(1, 1));
        let mut adam = Adam::new(lr);

        // Step 1: m₁ = 0.1·1, v₁ = 0.001·1; bias-corrected m̂ = v̂ = 1.
        adam.step_pairs(&mut params, &[(w, &Matrix::full(1, 1, 1.0))]);
        let expected1 = -lr * 1.0 / (1.0f64.sqrt() + eps);
        assert!((params.get(w)[(0, 0)] - expected1).abs() < 1e-12);

        // Step 2 with g = 0.5:
        //   m₂ = 0.9·0.1 + 0.1·0.5 = 0.14,     m̂ = 0.14 / (1 − 0.9²)
        //   v₂ = 0.999·0.001 + 0.001·0.25,     v̂ = v₂ / (1 − 0.999²)
        adam.step_pairs(&mut params, &[(w, &Matrix::full(1, 1, 0.5))]);
        let m_hat = 0.14 / (1.0 - 0.9f64.powi(2));
        let v_hat = (0.999 * 0.001 + 0.001 * 0.25) / (1.0 - 0.999f64.powi(2));
        let expected2 = expected1 - lr * m_hat / (v_hat.sqrt() + eps);
        assert!(
            (params.get(w)[(0, 0)] - expected2).abs() < 1e-12,
            "w = {}, expected {expected2}",
            params.get(w)[(0, 0)]
        );
    }

    #[test]
    fn instrumented_step_measures_norms() {
        let mut params = Params::new();
        let w = params.register_named("w", Matrix::zeros(1, 2));
        let mut adam = Adam::new(0.5);
        let stats = adam.step_pairs_instrumented(&mut params, &[(w, &Matrix::from_rows(&[&[3.0, 4.0]]))]);
        assert_eq!(stats.global_grad_norm, 5.0);
        assert_eq!(stats.grad_norms, vec![(w, 5.0)]);
        assert_eq!(stats.param_norm, 0.0);
        // Adam's bias-corrected first step is −lr·g/(|g| + ε) ≈ (−0.5, −0.5),
        // norm 0.5·√2.
        assert!((stats.update_norm - 0.5 * 2f64.sqrt()).abs() < 1e-6);
        assert!(stats.nonfinite_grad.is_none());
        // Near-zero parameter norm saturates the ratio guard, not a panic.
        assert!(stats.update_ratio().is_finite());
    }

    #[test]
    fn instrumented_step_flags_first_nonfinite_gradient() {
        let mut params = Params::new();
        let a = params.register(Matrix::ones(1, 1));
        let b = params.register(Matrix::ones(1, 1));
        let mut adam = Adam::new(0.1);
        let stats =
            adam.step_pairs_instrumented(&mut params, &[(a, &Matrix::full(1, 1, 1.0)), (b, &Matrix::full(1, 1, f64::NAN))]);
        assert_eq!(stats.nonfinite_grad, Some(b));
        assert!(stats.global_grad_norm.is_nan());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Adam keeps per-parameter moment buffers strictly separate: a
        /// NaN gradient on one parameter never contaminates another
        /// parameter's moments or value. The poisoned run's healthy
        /// parameter must track a control optimizer that never saw the
        /// poisoned one, bit for bit, across several steps.
        #[test]
        fn nan_gradient_does_not_contaminate_other_params(
            healthy_grads in proptest::collection::vec(-10.0..10.0f64, 12),
            poison_step in 0..4usize,
        ) {
            let mut poisoned_params = Params::new();
            let pa = poisoned_params.register(Matrix::zeros(1, 1));
            let pb = poisoned_params.register(Matrix::from_rows(&[&[1.0, -2.0, 3.0]]));
            let mut control_params = Params::new();
            let _ca = control_params.register(Matrix::zeros(1, 1));
            let cb = control_params.register(Matrix::from_rows(&[&[1.0, -2.0, 3.0]]));

            let mut poisoned = Adam::new(0.05);
            let mut control = Adam::new(0.05);
            for step in 0..4 {
                let gb = Matrix::from_rows(&[&healthy_grads[step * 3..step * 3 + 3]]);
                let ga = if step == poison_step { f64::NAN } else { 0.5 };
                // The poisoned optimizer updates both parameters; the
                // control updates only the healthy one.
                poisoned.step_pairs(
                    &mut poisoned_params,
                    &[(pa, &Matrix::full(1, 1, ga)), (pb, &gb)],
                );
                control.step_pairs(&mut control_params, &[(cb, &gb)]);
            }
            // Both optimizers stepped 4 times, so bias correction agrees;
            // b's trajectory must be identical despite a's NaN gradient.
            prop_assert_eq!(
                poisoned_params.get(pb).as_slice(),
                control_params.get(cb).as_slice()
            );
            // And the poisoned parameter itself is NaN from its step on.
            prop_assert!(poisoned_params.get(pa)[(0, 0)].is_nan());
        }
    }
}
