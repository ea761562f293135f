//! Parameter storage ([`ParamSet`]) and the per-pass binding session
//! ([`Forward`]).

use colper_autodiff::{Tape, Var};
use colper_tensor::Matrix;
use std::sync::Arc;

/// Handle to a trainable parameter inside a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

/// Handle to a non-trainable buffer (e.g. batch-norm running statistics)
/// inside a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub(crate) usize);

#[derive(Debug, Clone)]
pub(crate) struct Named {
    pub name: String,
    /// `Arc` so that eval-mode forward passes can bind the matrix onto a
    /// tape as a shared constant without copying the weights every step.
    pub value: Arc<Matrix>,
}

/// Owns all trainable parameters and buffers of a model.
///
/// Layers store [`ParamId`]/[`BufferId`] handles; the numbers live here so
/// that optimizers, serialization and weight transfer all operate on one
/// flat store.
#[derive(Debug, Clone, Default)]
pub struct ParamSet {
    pub(crate) params: Vec<Named>,
    pub(crate) buffers: Vec<Named>,
}

impl ParamSet {
    /// Creates an empty parameter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a trainable parameter; names should be unique and
    /// path-like (`"sa0.mlp1.weight"`).
    pub fn add_param(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.params.push(Named { name: name.into(), value: Arc::new(value) });
        ParamId(self.params.len() - 1)
    }

    /// Registers a non-trainable buffer.
    pub fn add_buffer(&mut self, name: impl Into<String>, value: Matrix) -> BufferId {
        self.buffers.push(Named { name: name.into(), value: Arc::new(value) });
        BufferId(self.buffers.len() - 1)
    }

    /// The current value of a parameter.
    pub fn param(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].value
    }

    /// A shared handle to a parameter's current value (no copy).
    pub fn param_shared(&self, id: ParamId) -> Arc<Matrix> {
        Arc::clone(&self.params[id.0].value)
    }

    /// Mutable access to a parameter (used by optimizers). Clones the
    /// storage only if a forward session still holds it bound to a tape.
    pub fn param_mut(&mut self, id: ParamId) -> &mut Matrix {
        Arc::make_mut(&mut self.params[id.0].value)
    }

    /// The name of a parameter.
    pub fn param_name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// The current value of a buffer.
    pub fn buffer(&self, id: BufferId) -> &Matrix {
        &self.buffers[id.0].value
    }

    /// A shared handle to a buffer's current value (no copy).
    pub fn buffer_shared(&self, id: BufferId) -> Arc<Matrix> {
        Arc::clone(&self.buffers[id.0].value)
    }

    /// Mutable access to a buffer. Clones the storage only if a forward
    /// session still holds it bound to a tape.
    pub fn buffer_mut(&mut self, id: BufferId) -> &mut Matrix {
        Arc::make_mut(&mut self.buffers[id.0].value)
    }

    /// Number of registered parameters (matrices, not scalars).
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Number of registered buffers.
    pub fn buffer_count(&self) -> usize {
        self.buffers.len()
    }

    /// Total number of trainable scalars.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// All parameter ids in registration order.
    pub fn param_ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Applies the batch-norm running-statistic updates recorded by a
    /// training [`Forward`] pass.
    pub fn apply_bn_updates(&mut self, updates: &[BnUpdate]) {
        for u in updates {
            let mean = self.buffer_mut(u.mean_buf);
            *mean = mean.scale(1.0 - u.momentum).add(&u.mean.scale(u.momentum)).expect("shape");
            let var = self.buffer_mut(u.var_buf);
            *var = var.scale(1.0 - u.momentum).add(&u.var.scale(u.momentum)).expect("shape");
        }
    }
}

/// A recorded batch-norm statistics update, applied after the backward
/// pass via [`ParamSet::apply_bn_updates`].
#[derive(Debug, Clone)]
pub struct BnUpdate {
    /// Running-mean buffer to update.
    pub mean_buf: BufferId,
    /// Running-variance buffer to update.
    pub var_buf: BufferId,
    /// Batch mean observed in this pass.
    pub mean: Matrix,
    /// Batch variance observed in this pass.
    pub var: Matrix,
    /// Exponential-moving-average momentum.
    pub momentum: f32,
}

/// A single forward/backward session: owns the [`Tape`] and binds
/// parameters onto it on demand.
///
/// * `training == true`: parameters bind as differentiable leaves,
///   batch-norm layers use batch statistics and record running-stat
///   updates, dropout is active.
/// * `training == false`: parameters bind as constants — gradients only
///   flow to explicit input leaves, which is exactly what the attack
///   needs.
#[derive(Debug)]
pub struct Forward<'p> {
    /// The tape the session records onto.
    pub tape: Tape,
    params: &'p ParamSet,
    bound: Vec<Option<Var>>,
    training: bool,
    bn_updates: Vec<BnUpdate>,
}

impl<'p> Forward<'p> {
    /// Starts a session over `params`.
    pub fn new(params: &'p ParamSet, training: bool) -> Self {
        Self {
            tape: Tape::new(),
            params,
            bound: vec![None; params.param_count()],
            training,
            bn_updates: Vec::new(),
        }
    }

    /// Starts a session over `params` on a donated tape, recycling the
    /// tape's buffer pools from whatever session used it last.
    ///
    /// This is [`Forward::new`] for warm starts: a caller that kept the
    /// tape of a finished session (via [`Forward::into_tape`]) hands it
    /// back and the first forward pass of the same shape allocates
    /// nothing, exactly like an in-place [`Forward::reset`]. The donated
    /// graph is cleared before use, so the recorded computation is
    /// independent of the tape's history.
    pub fn resume(params: &'p ParamSet, training: bool, mut tape: Tape) -> Self {
        tape.reset();
        Self {
            tape,
            params,
            bound: vec![None; params.param_count()],
            training,
            bn_updates: Vec::new(),
        }
    }

    /// Consumes the session and returns its tape (graph cleared, buffer
    /// pools intact) for donation to a later [`Forward::resume`].
    pub fn into_tape(mut self) -> Tape {
        self.tape.reset();
        self.tape
    }

    /// Whether the session is in training mode.
    pub fn training(&self) -> bool {
        self.training
    }

    /// Clears the recorded graph while keeping the tape's buffer pools, so
    /// the next forward pass of the same shape allocates nothing.
    ///
    /// Parameter bindings and pending batch-norm updates are dropped along
    /// with the graph.
    pub fn reset(&mut self) {
        self.tape.reset();
        self.bound.fill(None);
        self.bn_updates.clear();
    }

    /// Binds parameter `id` onto the tape (cached: repeated calls return
    /// the same [`Var`]).
    ///
    /// Training sessions copy the value into a differentiable leaf;
    /// evaluation sessions share the parameter's storage with the tape as
    /// a constant — no copy, no gradient.
    pub fn param(&mut self, id: ParamId) -> Var {
        if let Some(v) = self.bound[id.0] {
            return v;
        }
        let v = if self.training {
            self.tape.leaf_from(self.params.param(id))
        } else {
            self.tape.constant_shared(self.params.param_shared(id))
        };
        self.bound[id.0] = Some(v);
        v
    }

    /// Runs `f` on a session that records onto *this* session's tape but
    /// binds parameters from `guest` — how a second network joins the
    /// same graph (e.g. the transfer objective's penalty model, whose
    /// hinge is added to the surrogate's). Returned [`Var`]s live on the
    /// shared tape and stay valid after the call.
    ///
    /// The guest's parameter bindings are discarded when `f` returns;
    /// binding the same guest again re-interns its parameters (cheap:
    /// evaluation sessions share storage without copying).
    ///
    /// # Panics
    ///
    /// Panics in training mode — a guest's batch-norm updates would
    /// resolve against the wrong parameter set.
    pub fn with_params<T>(&mut self, guest: &ParamSet, f: impl FnOnce(&mut Forward<'_>) -> T) -> T {
        assert!(!self.training, "with_params: guest networks are evaluation-only");
        let tape = std::mem::replace(&mut self.tape, Tape::new());
        let mut session = Forward {
            tape,
            params: guest,
            bound: vec![None; guest.param_count()],
            training: false,
            bn_updates: Vec::new(),
        };
        let out = f(&mut session);
        self.tape = session.tape;
        out
    }

    /// Reads a buffer's current value.
    pub fn buffer(&self, id: BufferId) -> &'p Matrix {
        self.params.buffer(id)
    }

    /// A shared handle to a buffer's current value (no copy).
    pub fn buffer_shared(&self, id: BufferId) -> Arc<Matrix> {
        self.params.buffer_shared(id)
    }

    /// Records a batch-norm running-statistics update for later commit.
    pub fn record_bn_update(&mut self, update: BnUpdate) {
        self.bn_updates.push(update);
    }

    /// After `tape.backward`, collects the gradient of every bound
    /// parameter (pairs of id and gradient). Parameters that received no
    /// gradient are skipped.
    pub fn collect_grads(&self) -> Vec<(ParamId, Matrix)> {
        let mut out = Vec::new();
        for (i, bound) in self.bound.iter().enumerate() {
            if let Some(var) = bound {
                if let Some(g) = self.tape.grad(*var) {
                    out.push((ParamId(i), g.clone()));
                }
            }
        }
        out
    }

    /// Consumes the session and returns the recorded batch-norm updates.
    pub fn into_bn_updates(self) -> Vec<BnUpdate> {
        self.bn_updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_registration_and_access() {
        let mut ps = ParamSet::new();
        let w = ps.add_param("w", Matrix::ones(2, 3));
        let b = ps.add_buffer("running_mean", Matrix::zeros(1, 3));
        assert_eq!(ps.param(w).shape(), (2, 3));
        assert_eq!(ps.buffer(b).shape(), (1, 3));
        assert_eq!(ps.param_name(w), "w");
        assert_eq!(ps.param_count(), 1);
        assert_eq!(ps.buffer_count(), 1);
        assert_eq!(ps.num_scalars(), 6);
    }

    #[test]
    fn forward_binds_leaves_in_training() {
        let mut ps = ParamSet::new();
        let w = ps.add_param("w", Matrix::ones(1, 2));
        let mut f = Forward::new(&ps, true);
        let v = f.param(w);
        let v2 = f.param(w);
        assert_eq!(v, v2, "binding should be cached");
        let s = f.tape.sum(v);
        f.tape.backward(s);
        assert!(f.tape.grad(v).is_some());
        let grads = f.collect_grads();
        assert_eq!(grads.len(), 1);
        assert_eq!(grads[0].0, w);
    }

    #[test]
    fn forward_binds_constants_in_eval() {
        let mut ps = ParamSet::new();
        let w = ps.add_param("w", Matrix::ones(1, 2));
        let mut f = Forward::new(&ps, false);
        let v = f.param(w);
        // Mix with a leaf so backward has something to differentiate.
        let x = f.tape.leaf(Matrix::ones(1, 2));
        let y = f.tape.mul(x, v);
        let s = f.tape.sum(y);
        f.tape.backward(s);
        assert!(f.tape.grad(v).is_none(), "eval params must not get grads");
        assert!(f.collect_grads().is_empty());
    }

    #[test]
    fn resume_matches_new_and_round_trips_the_tape() {
        let mut ps = ParamSet::new();
        let w = ps.add_param("w", Matrix::filled(2, 2, 0.5));
        let run = |f: &mut Forward<'_>| {
            let v = f.param(w);
            let x = f.tape.leaf(Matrix::filled(2, 2, 3.0));
            let y = f.tape.mul(x, v);
            let s = f.tape.sum(y);
            f.tape.backward(s);
            (f.tape.value(s)[(0, 0)], f.tape.grad(x).expect("leaf grad").clone())
        };
        let mut fresh = Forward::new(&ps, false);
        let (want_v, want_g) = run(&mut fresh);
        // Donate the tape through into_tape -> resume: same values, same
        // gradients, bindings and bn updates dropped with the old graph.
        let tape = fresh.into_tape();
        let mut warmed = Forward::resume(&ps, false, tape);
        let (got_v, got_g) = run(&mut warmed);
        assert_eq!(want_v.to_bits(), got_v.to_bits());
        assert_eq!(want_g, got_g);
        assert!(warmed.collect_grads().is_empty(), "eval params still get no grads");
    }

    #[test]
    fn bn_updates_move_running_stats() {
        let mut ps = ParamSet::new();
        let mean_buf = ps.add_buffer("rm", Matrix::zeros(1, 2));
        let var_buf = ps.add_buffer("rv", Matrix::ones(1, 2));
        ps.apply_bn_updates(&[BnUpdate {
            mean_buf,
            var_buf,
            mean: Matrix::filled(1, 2, 10.0),
            var: Matrix::filled(1, 2, 4.0),
            momentum: 0.1,
        }]);
        assert!((ps.buffer(mean_buf)[(0, 0)] - 1.0).abs() < 1e-6);
        assert!((ps.buffer(var_buf)[(0, 0)] - (0.9 + 0.4)).abs() < 1e-6);
    }
}
