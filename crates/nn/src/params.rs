//! Parameter storage and per-tape binding.
//!
//! Models in this workspace keep their weights in a flat [`Params`] store
//! and refer to them by [`ParamId`]. Each training step binds the store to
//! a fresh autograd tape ([`Params::bind`]), producing a [`BoundParams`]
//! that maps ids to tape [`Var`]s. The tape borrows the weights rather
//! than copying them; [`BoundParams::backward`] hands back the gradients
//! keyed by parameter ([`ParamGrads`]), which the optimizer applies once
//! the tape is done. This mirrors the PyTorch parameter/optimizer split
//! while staying explicit about tape lifetimes.

use autograd::{Gradients, Tape, Var};
use tensor::Matrix;

/// Identifier of a parameter inside a [`Params`] store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

/// Flat storage for model parameters.
#[derive(Default, Clone)]
pub struct Params {
    mats: Vec<Matrix>,
    names: Vec<String>,
}

impl Params {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter under an auto-generated name (`param<i>`),
    /// returning its id.
    pub fn register(&mut self, value: Matrix) -> ParamId {
        let name = format!("param{}", self.mats.len());
        self.register_named(name, value)
    }

    /// Registers a parameter under an explicit name, returning its id.
    /// Names label telemetry (`nn.grad_norm.<name>` histograms, health
    /// violations, diagnostic dumps); they are not required to be unique —
    /// duplicate names simply share a histogram.
    pub fn register_named(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.mats.push(value);
        self.names.push(name.into());
        ParamId(self.mats.len() - 1)
    }

    /// The telemetry name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates over all parameter ids in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.mats.len()).map(ParamId)
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.mats.len()
    }

    /// True if no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.mats.is_empty()
    }

    /// Read access to a parameter value.
    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.mats[id.0]
    }

    /// Write access to a parameter value.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.mats[id.0]
    }

    /// Total number of scalar weights across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.mats.iter().map(Matrix::len).sum()
    }

    /// All parameter values, in registration order (for an optimizer that
    /// updates several at once).
    pub(crate) fn values_mut(&mut self) -> &mut [Matrix] {
        &mut self.mats
    }

    /// Creates tape leaves for every parameter, borrowing the values
    /// rather than copying them ([`Tape::leaf_ref`]). The store stays
    /// borrowed while the tape is in use; step the optimizer with
    /// [`BoundParams::backward`]'s gradients after the tape's last use.
    pub fn bind<'t>(&'t self, tape: &'t Tape<'t>) -> BoundParams<'t> {
        BoundParams { tape, vars: self.mats.iter().map(|m| tape.leaf_ref(m)).collect() }
    }
}

/// Parameters bound to a specific tape as leaf nodes.
pub struct BoundParams<'t> {
    tape: &'t Tape<'t>,
    vars: Vec<Var>,
}

impl<'t> BoundParams<'t> {
    /// The tape [`Var`] for parameter `id`.
    pub fn var(&self, id: ParamId) -> Var {
        self.vars[id.0]
    }

    /// The tape this binding belongs to.
    pub fn tape(&self) -> &'t Tape<'t> {
        self.tape
    }

    /// Iterates over `(ParamId, Var)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, Var)> + '_ {
        self.vars.iter().enumerate().map(|(i, &v)| (ParamId(i), v))
    }

    /// Runs the tape's reverse sweep from the scalar `loss` and keys the
    /// gradients by parameter. The result borrows neither the tape nor
    /// the store.
    pub fn backward(&self, loss: Var) -> ParamGrads {
        ParamGrads { grads: self.tape.backward(loss), vars: self.vars.clone() }
    }
}

/// The gradients of one backward pass, keyed by parameter: what an
/// optimizer step reads ([`crate::Adam::step`]).
pub struct ParamGrads {
    grads: Gradients,
    vars: Vec<Var>,
}

impl ParamGrads {
    /// The gradient of parameter `id`; `None` if the loss does not
    /// depend on it.
    pub fn get(&self, id: ParamId) -> Option<&Matrix> {
        self.grads.try_grad(self.vars[id.0])
    }

    /// `(ParamId, gradient)` for every parameter the loss depends on, in
    /// registration order.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> + '_ {
        (0..self.vars.len()).filter_map(|i| self.get(ParamId(i)).map(|g| (ParamId(i), g)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_access() {
        let mut p = Params::new();
        let a = p.register(Matrix::ones(2, 2));
        let b = p.register(Matrix::zeros(1, 3));
        assert_eq!(p.len(), 2);
        assert_eq!(p.num_scalars(), 7);
        assert_eq!(p.get(a)[(0, 0)], 1.0);
        p.get_mut(b)[(0, 2)] = 5.0;
        assert_eq!(p.get(b)[(0, 2)], 5.0);
    }

    #[test]
    fn names_default_and_explicit() {
        let mut p = Params::new();
        let a = p.register(Matrix::ones(1, 1));
        let b = p.register_named("centers", Matrix::ones(2, 2));
        assert_eq!(p.name(a), "param0");
        assert_eq!(p.name(b), "centers");
        let ids: Vec<ParamId> = p.ids().collect();
        assert_eq!(ids, vec![a, b]);
    }

    #[test]
    fn binding_exposes_values_on_tape() {
        let mut p = Params::new();
        let a = p.register(Matrix::full(1, 1, 3.0));
        let tape = Tape::new();
        let bound = p.bind(&tape);
        assert_eq!(tape.value(bound.var(a))[(0, 0)], 3.0);
        assert_eq!(bound.iter().count(), 1);
    }

    #[test]
    fn backward_keys_gradients_by_parameter() {
        let mut p = Params::new();
        let a = p.register(Matrix::full(1, 1, 3.0));
        let unused = p.register(Matrix::ones(2, 2));
        let tape = Tape::new();
        let bound = p.bind(&tape);
        let grads = bound.backward(tape.sum(tape.square(bound.var(a))));
        // The tape is done: the store can be written again.
        p.get_mut(a)[(0, 0)] = 0.0;
        assert_eq!(grads.get(a), Some(&Matrix::full(1, 1, 6.0)));
        assert!(grads.get(unused).is_none());
        assert_eq!(grads.iter().map(|(id, _)| id).collect::<Vec<_>>(), vec![a]);
    }
}
