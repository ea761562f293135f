//! The [`Tape`]: a linear record of primitive operations and its reverse
//! (backward) pass.

use crate::ops_nn::{smoothness_backward, smoothness_forward};
use colper_tensor::{kernels, Act, BufferPool, GatherIndex, Matrix};
use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::Arc;

/// A handle to a value recorded on a [`Tape`].
///
/// `Var` is a cheap copyable index; all state lives on the tape. A `Var`
/// must only be used with the tape that created it — using it with another
/// tape is a logic error that the tape detects by bounds checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// A matrix either owned by the tape (recycled into the buffer pool on
/// [`Tape::reset`]) or shared across tapes/steps via `Arc` (interned
/// constants: coordinates, masks, dropout-off masks).
#[derive(Debug)]
pub(crate) enum Value {
    Owned(Matrix),
    Shared(Arc<Matrix>),
}

impl Value {
    /// Mutable access to an owned value — [`step_forward`] writes node
    /// outputs in place.
    ///
    /// # Panics
    ///
    /// Panics on a shared value. Recording gives every computed node a
    /// pooled slot; only leaves and constants may share storage, and
    /// [`step_forward`] never writes those.
    pub(crate) fn owned_mut(&mut self) -> &mut Matrix {
        match self {
            Value::Owned(m) => m,
            Value::Shared(_) => panic!("owned_mut on a shared tape value"),
        }
    }
}

impl Deref for Value {
    type Target = Matrix;
    fn deref(&self) -> &Matrix {
        match self {
            Value::Owned(m) => m,
            Value::Shared(m) => m,
        }
    }
}

/// An index payload either owned by the tape (recycled on reset) or shared
/// via `Arc` (plan-interned gather indices).
#[derive(Debug)]
pub(crate) enum Ix {
    Owned(Vec<usize>),
    Shared(Arc<[usize]>),
}

impl Deref for Ix {
    type Target = [usize];
    fn deref(&self) -> &[usize] {
        match self {
            Ix::Owned(v) => v,
            Ix::Shared(v) => v,
        }
    }
}

/// A weight payload either owned by the tape or shared via `Arc`.
#[derive(Debug)]
pub(crate) enum Wts {
    Owned(Vec<f32>),
    Shared(Arc<[f32]>),
}

impl Deref for Wts {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        match self {
            Wts::Owned(v) => v,
            Wts::Shared(v) => v,
        }
    }
}

/// The primitive operations the tape can record.
///
/// Each variant stores the operand handles, every other input its
/// forward reads (gather indices, labels, masks), and whatever
/// forward-pass context the backward pass needs (e.g. argmax indices for
/// grouped max pooling, the saved softmax for cross-entropy), so
/// [`step_forward`] and [`step_backward`] need nothing but the nodes.
#[derive(Debug)]
pub(crate) enum Op {
    /// A differentiable input (weights, adversarial variables).
    Leaf,
    /// A non-differentiable input (coordinates, masks, labels as floats).
    Constant,
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    /// `[N,C] + [1,C]` row broadcast (bias add).
    AddRow(Var, Var),
    /// `[N,C] * [1,C]` row broadcast.
    MulRow(Var, Var),
    Scale(Var, f32),
    // The scalar is only needed in the forward pass; the backward pass
    // ignores it.
    AddScalar(Var, f32),
    Matmul(Var, Var),
    Relu(Var),
    LeakyRelu(Var, f32),
    Tanh(Var),
    Sqrt(Var),
    Square(Var),
    /// Elementwise product with a constant matrix (dropout masks etc.).
    MulConst(Var, Value),
    Sum(Var),
    MeanRows(Var),
    SumCols(Var),
    /// Row gather: `out[i] = x[idx[i]]`.
    GatherRows(Var, Ix),
    /// Max over consecutive groups of `k` rows; saves per-output-element
    /// source rows for the backward scatter.
    GroupMax {
        x: Var,
        k: usize,
        argmax: Vec<usize>,
    },
    /// Mean over consecutive groups of `k` rows.
    GroupMean(Var, usize),
    /// Softmax over each consecutive group of `k` rows, per column. The
    /// backward reads the softmax from the node's own value.
    GroupSoftmax(Var, usize),
    /// Inverse-distance-weighted interpolation:
    /// `out[i] = sum_j w[i*k+j] * x[idx[i*k+j]]`.
    WeightedGather {
        x: Var,
        idx: Ix,
        w: Wts,
        k: usize,
    },
    ConcatCols(Var, Var),
    /// Eval-mode batch norm fused with its activation:
    /// `act(x * scale + shift)` with `[1,C]` scale and shift rows.
    AffineAct {
        x: Var,
        scale: Var,
        shift: Var,
        act: Act,
    },
    /// Graph edge features: row `e` is `[x[c] | x[j] - x[c]]` for
    /// `c = center[e]`, `j = nbr[e]`; the indices carry their inverses for
    /// the backward scatter.
    EdgeFeatures {
        x: Var,
        center: Arc<GatherIndex>,
        nbr: Arc<GatherIndex>,
    },
    /// ResGCN's eval-mode edge convolution:
    /// `group_max(act((edge_features(h) · w) * scale + shift), k)` with
    /// constant `w`, `scale` and `shift`. Keeps only the pooled value (the
    /// node's own) and, per element, the winning edge.
    EdgeConv {
        h: Var,
        center: Arc<GatherIndex>,
        nbr: Arc<GatherIndex>,
        w: Var,
        scale: Var,
        shift: Var,
        act: Act,
        k: usize,
        argmax: Vec<usize>,
    },
    /// Fused batch normalization (training mode): saves normalized
    /// activations and the inverse standard deviation. Its constructor
    /// computes the value (the batch statistics leave the tape with it),
    /// so it has no forward arm.
    BatchNorm {
        x: Var,
        gamma: Var,
        beta: Var,
        xhat: Matrix,
        inv_std: Matrix,
    },
    /// Fused softmax + mean cross-entropy; saves the softmax.
    SoftmaxCrossEntropy {
        logits: Var,
        labels: Vec<usize>,
        softmax: Matrix,
    },
    /// The paper's CW-style hinge (Eq. 7 targeted / Eq. 8 non-targeted)
    /// over the rows `mask` selects. Keeps its labels, mask and direction,
    /// and saves, for every active (hinge > 0) row, the logit index that
    /// receives +1 and the one that receives -1.
    CwHinge {
        logits: Var,
        labels: Vec<usize>,
        mask: Vec<bool>,
        targeted: bool,
        active: Vec<(usize, usize, usize)>, // (row, plus_col, minus_col)
    },
    /// The paper's smoothness penalty (Eq. 6) over a fixed neighbor graph,
    /// differentiable in the color block only. Saves every edge's length
    /// for the backward.
    Smoothness {
        colors: Var,
        coords: Value,
        neighbors: Ix,
        k: usize,
        lengths: Vec<f32>,
    },
}

impl Op {
    /// Calls `f` for every operand `Var` of this op (forward-pass inputs
    /// only, not saved context). Drives the backward reachability pass and
    /// the `requires_grad` derivation.
    pub(crate) fn for_each_operand(&self, mut f: impl FnMut(Var)) {
        match self {
            Op::Leaf | Op::Constant => {}
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::AddRow(a, b)
            | Op::MulRow(a, b)
            | Op::Matmul(a, b)
            | Op::ConcatCols(a, b) => {
                f(*a);
                f(*b);
            }
            Op::Scale(x, _)
            | Op::AddScalar(x, _)
            | Op::LeakyRelu(x, _)
            | Op::Relu(x)
            | Op::Tanh(x)
            | Op::Sqrt(x)
            | Op::Square(x)
            | Op::Sum(x)
            | Op::MeanRows(x)
            | Op::SumCols(x)
            | Op::GroupMean(x, _)
            | Op::GroupSoftmax(x, _)
            | Op::MulConst(x, _)
            | Op::GatherRows(x, _)
            | Op::GroupMax { x, .. }
            | Op::WeightedGather { x, .. }
            | Op::EdgeFeatures { x, .. } => f(*x),
            Op::AffineAct { x, scale, shift, .. } => {
                f(*x);
                f(*scale);
                f(*shift);
            }
            Op::EdgeConv { h, w, scale, shift, .. } => {
                f(*h);
                f(*w);
                f(*scale);
                f(*shift);
            }
            Op::BatchNorm { x, gamma, beta, .. } => {
                f(*x);
                f(*gamma);
                f(*beta);
            }
            Op::SoftmaxCrossEntropy { logits, .. } | Op::CwHinge { logits, .. } => f(*logits),
            Op::Smoothness { colors, .. } => f(*colors),
        }
    }
}

#[derive(Debug)]
struct Node {
    pub value: Value,
    pub op: Op,
    pub requires_grad: bool,
}

/// A tape recording a computation graph over [`Matrix`] values.
///
/// Build values with [`Tape::leaf`] / [`Tape::constant`], combine them with
/// the op methods (see the `ops_*` modules), call [`Tape::backward`] on a
/// scalar output, then read gradients with [`Tape::grad`].
///
/// Tapes are reusable: [`Tape::reset`] clears the recorded graph but keeps
/// every value/gradient buffer in an internal [`BufferPool`], so a loop that
/// rebuilds the same graph shape every iteration (the attack's steady
/// state) performs no heap allocation for tape storage, and no memset for
/// slots its kernels overwrite whole. Constants that are identical across
/// iterations can additionally be interned once and shared via
/// [`Tape::constant_shared`] instead of being copied per step.
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
    grads: Vec<Option<Matrix>>,
    pool: BufferPool,
    idx_pool: VecDeque<Vec<usize>>,
    w_pool: VecDeque<Vec<f32>>,
    tri_pool: VecDeque<Vec<(usize, usize, usize)>>,
    mask_pool: VecDeque<Vec<bool>>,
    live: Vec<bool>,
    visited: usize,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty tape with room for `capacity` nodes.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { nodes: Vec::with_capacity(capacity), ..Self::default() }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Clears the recorded graph while retaining all storage.
    ///
    /// Every owned value, gradient and op payload (index vectors, saved
    /// softmax matrices, …) is shelved in the tape's pools; the next
    /// forward pass refills the recycled buffers in place. Shared (`Arc`)
    /// payloads are dropped without touching the pools.
    pub fn reset(&mut self) {
        colper_obs::counters::TAPE_RESETS.incr();
        for node in self.nodes.drain(..) {
            if let Value::Owned(m) = node.value {
                self.pool.recycle(m);
            }
            match node.op {
                Op::MulConst(_, Value::Owned(m)) => self.pool.recycle(m),
                Op::GatherRows(_, Ix::Owned(idx)) => self.idx_pool.push_back(idx),
                Op::GroupMax { argmax, .. } | Op::EdgeConv { argmax, .. } => {
                    self.idx_pool.push_back(argmax)
                }
                Op::WeightedGather { idx, w, .. } => {
                    if let Ix::Owned(idx) = idx {
                        self.idx_pool.push_back(idx);
                    }
                    if let Wts::Owned(w) = w {
                        self.w_pool.push_back(w);
                    }
                }
                Op::BatchNorm { xhat, inv_std, .. } => {
                    self.pool.recycle(xhat);
                    self.pool.recycle(inv_std);
                }
                Op::SoftmaxCrossEntropy { labels, softmax, .. } => {
                    self.idx_pool.push_back(labels);
                    self.pool.recycle(softmax);
                }
                Op::CwHinge { labels, mask, active, .. } => {
                    self.idx_pool.push_back(labels);
                    self.mask_pool.push_back(mask);
                    self.tri_pool.push_back(active);
                }
                Op::Smoothness { coords, neighbors, lengths, .. } => {
                    if let Value::Owned(m) = coords {
                        self.pool.recycle(m);
                    }
                    if let Ix::Owned(n) = neighbors {
                        self.idx_pool.push_back(n);
                    }
                    self.w_pool.push_back(lengths);
                }
                _ => {}
            }
        }
        for g in self.grads.drain(..).flatten() {
            self.pool.recycle(g);
        }
        self.live.clear();
        self.visited = 0;
    }

    /// `(hits, misses)` of the internal buffer pool. A reused tape whose
    /// `misses` count stops growing performs no heap allocation for value
    /// or gradient storage.
    pub fn pool_stats(&self) -> (u64, u64) {
        self.pool.stats()
    }

    /// Number of nodes the last [`Tape::backward`] actually processed
    /// (nodes reachable from the loss root that received a gradient).
    pub fn backward_visited(&self) -> usize {
        self.visited
    }

    /// Records a differentiable leaf (a gradient will be available after
    /// [`Tape::backward`]).
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Records a differentiable leaf by copying `value` into recycled
    /// storage (the allocation-free variant of [`Tape::leaf`]).
    pub fn leaf_from(&mut self, value: &Matrix) -> Var {
        let m = self.pool.copy_of(value);
        self.push(m, Op::Leaf)
    }

    /// Records a constant (no gradient is tracked through it).
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Constant)
    }

    /// Records a constant by copying `value` into recycled storage.
    pub fn constant_from(&mut self, value: &Matrix) -> Var {
        let m = self.pool.copy_of(value);
        self.push(m, Op::Constant)
    }

    /// Records an interned constant shared via `Arc` — no copy at all.
    /// The backing matrix can be shared across steps (and tapes), which is
    /// how attack plans intern coordinates, masks and frozen channels.
    pub fn constant_shared(&mut self, value: Arc<Matrix>) -> Var {
        self.push_value(Value::Shared(value), Op::Constant)
    }

    /// Records a constant computed elementwise from `src` into recycled
    /// storage (e.g. the inverse-std row of an eval-mode batch norm).
    pub fn constant_map(&mut self, src: &Matrix, f: impl Fn(f32) -> f32 + Sync) -> Var {
        let mut m = self.pool.zeros_like(src);
        src.map_into(&mut m, f);
        self.push(m, Op::Constant)
    }

    /// The forward value of `v`.
    ///
    /// # Panics
    ///
    /// Panics when `v` does not belong to this tape.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.node(v).value
    }

    /// The gradient of the last [`Tape::backward`] output with respect to
    /// `v`, or `None` when `v` is a constant / received no gradient.
    ///
    /// # Panics
    ///
    /// Panics when `v` does not belong to this tape.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        assert!(v.0 < self.nodes.len(), "Var {} does not belong to this tape", v.0);
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    fn node(&self, v: Var) -> &Node {
        assert!(v.0 < self.nodes.len(), "Var {} does not belong to this tape", v.0);
        &self.nodes[v.0]
    }

    /// A zero-filled matrix from the tape's buffer pool, for the values
    /// training batch norm computes in its constructor, so that
    /// [`Tape::reset`] can recycle them.
    pub(crate) fn alloc(&mut self, rows: usize, cols: usize) -> Matrix {
        self.pool.zeros(rows, cols)
    }

    /// A pooled matrix with unspecified contents, for an op payload that
    /// [`step_forward`] writes whole (the cross-entropy's saved softmax).
    pub(crate) fn scratch(&mut self, rows: usize, cols: usize) -> Matrix {
        self.pool.scratch(rows, cols)
    }

    /// Whether `v` requires a gradient.
    pub(crate) fn requires_grad(&self, v: Var) -> bool {
        self.node(v).requires_grad
    }

    /// A pooled copy of `src`.
    pub(crate) fn alloc_copy(&mut self, src: &Matrix) -> Matrix {
        self.pool.copy_of(src)
    }

    /// An empty (cleared) index vector from the index pool.
    pub(crate) fn take_idx(&mut self) -> Vec<usize> {
        let mut v = self.idx_pool.pop_front().unwrap_or_default();
        v.clear();
        v
    }

    /// A pooled copy of an index slice.
    pub(crate) fn pooled_idx_copy(&mut self, src: &[usize]) -> Vec<usize> {
        let mut v = self.take_idx();
        v.extend_from_slice(src);
        v
    }

    /// An empty (cleared) weight vector from the weight pool.
    pub(crate) fn take_w(&mut self) -> Vec<f32> {
        let mut v = self.w_pool.pop_front().unwrap_or_default();
        v.clear();
        v
    }

    /// A pooled copy of a weight slice.
    pub(crate) fn pooled_w_copy(&mut self, src: &[f32]) -> Vec<f32> {
        let mut v = self.take_w();
        v.extend_from_slice(src);
        v
    }

    /// An empty (cleared) hinge-triple vector from its pool.
    pub(crate) fn take_tri(&mut self) -> Vec<(usize, usize, usize)> {
        let mut v = self.tri_pool.pop_front().unwrap_or_default();
        v.clear();
        v
    }

    /// A pooled copy of a row mask.
    pub(crate) fn pooled_mask_copy(&mut self, src: &[bool]) -> Vec<bool> {
        let mut v = self.mask_pool.pop_front().unwrap_or_default();
        v.clear();
        v.extend_from_slice(src);
        v
    }

    /// Records `op` with a pooled `rows x cols` output slot and evaluates
    /// it there: the one door of every computed op. The slot is dirty
    /// scratch, not zeros: [`step_forward`] writes every element of it.
    pub(crate) fn record(&mut self, (rows, cols): (usize, usize), op: Op) -> Var {
        let out = self.pool.scratch(rows, cols);
        self.push(out, op)
    }

    pub(crate) fn push(&mut self, value: Matrix, op: Op) -> Var {
        self.push_value(Value::Owned(value), op)
    }

    /// Appends a node and runs [`step_forward`] on it. A leaf requires a
    /// gradient, a constant does not, and any other op does when one of
    /// its operands does.
    fn push_value(&mut self, value: Value, op: Op) -> Var {
        let requires_grad = match op {
            Op::Leaf => true,
            Op::Constant => false,
            _ => {
                let mut rg = false;
                op.for_each_operand(|v| rg |= self.node(v).requires_grad);
                rg
            }
        };
        self.nodes.push(Node { value, op, requires_grad });
        let i = self.nodes.len() - 1;
        step_forward(&mut self.nodes, i);
        let node = &self.nodes[i];
        debug_assert!(
            node.value.all_finite() || matches!(node.op, Op::Leaf | Op::Constant),
            "non-finite value produced by {:?}",
            node.op
        );
        Var(i)
    }

    /// Runs the reverse pass from the scalar output `out`, accumulating
    /// gradients for every node that `out` (transitively) depends on.
    ///
    /// A reachability mark pass first restricts the walk to ancestors of
    /// `out`, so recorded-but-unused subgraphs cost nothing. Calling
    /// `backward` again replaces the previous gradients.
    ///
    /// # Panics
    ///
    /// Panics when `out` is not a `1x1` scalar or does not require grad.
    pub fn backward(&mut self, out: Var) {
        let _span = colper_obs::span!(TAPE_BACKWARD);
        let n = self.nodes.len();
        colper_obs::counters::TAPE_BACKWARDS.incr();
        colper_obs::gauges::TAPE_NODES.record(n as u64);
        assert_eq!(self.node(out).value.shape(), (1, 1), "backward requires a scalar output");
        assert!(self.node(out).requires_grad, "backward output does not depend on any leaf");

        // Mark pass: which nodes are ancestors of `out` through
        // gradient-requiring edges?
        self.live.clear();
        self.live.resize(n, false);
        self.live[out.0] = true;
        {
            let (nodes, live) = (&self.nodes, &mut self.live);
            for i in (0..n).rev() {
                if !live[i] || !nodes[i].requires_grad {
                    continue;
                }
                nodes[i].op.for_each_operand(|v| live[v.0] = true);
            }
        }

        for g in self.grads.drain(..).flatten() {
            self.pool.recycle(g);
        }
        self.grads.resize_with(n, || None);
        self.visited = 0;
        let seed = {
            let mut o = self.pool.zeros(1, 1);
            o[(0, 0)] = 1.0;
            o
        };
        self.grads[out.0] = Some(seed);

        for i in (0..n).rev() {
            if !self.nodes[i].requires_grad || !self.live[i] {
                continue;
            }
            let Some(gy) = self.grads[i].take() else { continue };
            self.visited += 1;
            step_backward(&self.nodes, &mut self.grads, &mut self.pool, i, &gy);
            self.grads[i] = Some(gy);
        }
    }
}

/// Adds an owned gradient contribution to `grads[v]`, recycling `g`
/// whenever its storage is not moved into the slot.
fn accumulate(
    nodes: &[Node],
    grads: &mut [Option<Matrix>],
    pool: &mut BufferPool,
    v: Var,
    g: Matrix,
) {
    if !nodes[v.0].requires_grad {
        pool.recycle(g);
        return;
    }
    match &mut grads[v.0] {
        Some(acc) => {
            acc.add_assign(&g);
            pool.recycle(g);
        }
        slot @ None => *slot = Some(g),
    }
}

/// Adds a borrowed gradient contribution to `grads[v]`: add-assign in place
/// when a slot exists, else a pooled copy (the identity-Jacobian fast path
/// for `Add`/`AddRow`/`AddScalar`, which previously cloned `gy`).
fn accumulate_copy(
    nodes: &[Node],
    grads: &mut [Option<Matrix>],
    pool: &mut BufferPool,
    v: Var,
    gy: &Matrix,
) {
    if !nodes[v.0].requires_grad {
        return;
    }
    match &mut grads[v.0] {
        Some(acc) => acc.add_assign(gy),
        slot @ None => *slot = Some(pool.copy_of(gy)),
    }
}

/// One forward step for node `i`: computes its value in place from its
/// operands, the twin of [`step_backward`]. Recording calls it on every
/// node it pushes.
///
/// Every arm fully overwrites the node's slot or clears it first
/// (`group_mean`, `weighted_gather` accumulate into zeros), so
/// [`Tape::record`] hands it dirty scratch: a slot that may still hold
/// what an earlier graph on this tape left there. Leaves, constants and
/// training-mode batch norm hold the value their constructor wrote.
#[allow(clippy::too_many_lines)]
fn step_forward(nodes: &mut [Node], i: usize) {
    // Operands precede their consumer in topological order, so split at
    // `i`: `head` holds every operand immutably, `tail[0]` is the node
    // being written.
    let (head, tail) = nodes.split_at_mut(i);
    let Node { value, op, .. } = &mut tail[0];
    let val = |v: Var| &head[v.0].value;
    match op {
        Op::Leaf | Op::Constant | Op::BatchNorm { .. } => {}
        Op::Add(a, b) => val(*a).add_into(val(*b), value.owned_mut()).expect("add: shape"),
        Op::Sub(a, b) => val(*a).sub_into(val(*b), value.owned_mut()).expect("sub: shape"),
        Op::Mul(a, b) => val(*a).mul_into(val(*b), value.owned_mut()).expect("mul: shape"),
        Op::AddRow(x, r) => {
            val(*x).broadcast_row_into(val(*r).row(0), kernels::add, value.owned_mut())
        }
        Op::MulRow(x, r) => {
            val(*x).broadcast_row_into(val(*r).row(0), kernels::mul, value.owned_mut())
        }
        Op::Scale(x, s) => val(*x).scale_into(*s, value.owned_mut()),
        Op::AddScalar(x, s) => {
            let s = *s;
            val(*x).map_into(value.owned_mut(), |t| t + s);
        }
        Op::Matmul(a, b) => val(*a).matmul_into(val(*b), value.owned_mut()).expect("matmul: shape"),
        Op::Relu(x) => val(*x).map_into(value.owned_mut(), |t| t.max(0.0)),
        Op::LeakyRelu(x, alpha) => {
            let alpha = *alpha;
            val(*x).map_into(value.owned_mut(), move |t| if t > 0.0 { t } else { alpha * t });
        }
        Op::Tanh(x) => val(*x).tanh_into(value.owned_mut()),
        Op::Sqrt(x) => val(*x).map_into(value.owned_mut(), f32::sqrt),
        Op::Square(x) => val(*x).map_into(value.owned_mut(), |t| t * t),
        Op::MulConst(x, mask) => {
            val(*x).mul_into(mask, value.owned_mut()).expect("mul_const: shape")
        }
        Op::Sum(x) => value.owned_mut()[(0, 0)] = val(*x).sum(),
        Op::MeanRows(x) => val(*x).mean_rows_into(value.owned_mut()),
        Op::SumCols(x) => val(*x).sum_cols_into(value.owned_mut()),
        Op::GatherRows(x, idx) => val(*x).select_rows_into(idx, value.owned_mut()),
        Op::GroupMax { x, k, argmax } => val(*x).group_max_into(*k, value.owned_mut(), argmax),
        Op::GroupMean(x, k) => {
            let (xv, k, out) = (val(*x), *k, value.owned_mut());
            out.as_mut_slice().fill(0.0);
            kernels::count_dispatch(xv.rows());
            for g in 0..out.rows() {
                for j in 0..k {
                    kernels::add_assign(out.row_mut(g), xv.row(g * k + j));
                }
            }
            out.map_inplace(|v| v / k as f32);
        }
        Op::GroupSoftmax(x, k) => val(*x).group_softmax_into(*k, value.owned_mut()),
        Op::WeightedGather { x, idx, w, k } => {
            let (xv, k, out) = (val(*x), *k, value.owned_mut());
            out.as_mut_slice().fill(0.0);
            kernels::count_dispatch(idx.len());
            for r in 0..out.rows() {
                for j in 0..k {
                    let flat = r * k + j;
                    kernels::axpy(out.row_mut(r), w[flat], xv.row(idx[flat]));
                }
            }
        }
        Op::ConcatCols(a, b) => {
            val(*a).hstack_into(val(*b), value.owned_mut()).expect("concat_cols: rows");
        }
        Op::AffineAct { x, scale, shift, act } => {
            let (sv, bv) = (val(*scale).row(0), val(*shift).row(0));
            val(*x).affine_act_into(sv, bv, *act, value.owned_mut());
        }
        Op::EdgeFeatures { x, center, nbr } => {
            val(*x).edge_features_into(center, nbr, value.owned_mut());
        }
        Op::EdgeConv { h, center, nbr, w, scale, shift, act, k, argmax } => {
            let conv = colper_tensor::EdgeConv {
                w: val(*w),
                scale: val(*scale).row(0),
                shift: val(*shift).row(0),
                act: *act,
                k: *k,
            };
            val(*h).edge_conv_into(center, nbr, conv, value.owned_mut(), argmax);
        }
        Op::SoftmaxCrossEntropy { logits, labels, softmax } => {
            let z = val(*logits);
            let (n, c) = z.shape();
            let mut loss = 0.0f32;
            for r in 0..n {
                let row = z.row(r);
                let maxv = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut denom = 0.0f32;
                for (cc, &v) in row.iter().enumerate() {
                    let e = (v - maxv).exp();
                    softmax[(r, cc)] = e;
                    denom += e;
                }
                for cc in 0..c {
                    softmax[(r, cc)] /= denom;
                }
                loss -= softmax[(r, labels[r])].max(1e-12).ln();
            }
            loss /= n.max(1) as f32;
            value.owned_mut()[(0, 0)] = loss;
        }
        Op::CwHinge { logits, labels, mask, targeted, active } => {
            let z = val(*logits);
            active.clear();
            let mut loss = 0.0f32;
            for r in 0..z.rows() {
                if !mask[r] {
                    continue;
                }
                let y = labels[r];
                let row = z.row(r);
                let (jmax, zmax) = row.iter().enumerate().filter(|&(j, _)| j != y).fold(
                    (usize::MAX, f32::NEG_INFINITY),
                    |(bj, bv), (j, &v)| {
                        if v > bv {
                            (j, v)
                        } else {
                            (bj, bv)
                        }
                    },
                );
                let zy = row[y];
                // targeted: want z_y to win -> penalize (zmax - zy)_+, grads +jmax, -y
                // non-targeted: want z_y to lose -> penalize (zy - zmax)_+, grads +y, -jmax
                let (v, plus, minus) =
                    if *targeted { (zmax - zy, jmax, y) } else { (zy - zmax, y, jmax) };
                if v > 0.0 {
                    loss += v;
                    active.push((r, plus, minus));
                }
            }
            value.owned_mut()[(0, 0)] = loss;
        }
        Op::Smoothness { colors, coords, neighbors, k, lengths } => {
            value.owned_mut()[(0, 0)] =
                smoothness_forward(val(*colors), coords, (neighbors, *k), lengths);
        }
    }
}

/// One backward step for node `i`, the twin of [`step_forward`].
/// Dispatches on a borrowed `&Op` — no op payload is cloned — and builds
/// every produced gradient in pooled storage. All arithmetic keeps the
/// exact scalar expressions and accumulation order of the original
/// allocating implementation, so gradients are bit-identical.
///
/// **Dead-gradient pruning**: operand gradients flowing into
/// `!requires_grad` nodes (eval-mode weights bound as constants) are
/// never computed. Such a gradient would only be handed to `accumulate`,
/// which drops it, so no surviving value ever depended on it.
///
/// **Dirty scratch**: gradient storage whose kernel fully overwrites
/// every element (see [`grad_buf`]) skips the `zeros` memset. Buffers
/// that are accumulated into (`Smoothness`, `WeightedGather`, …) keep
/// `zeros`.
#[allow(clippy::too_many_lines)]
fn step_backward(
    nodes: &[Node],
    grads: &mut [Option<Matrix>],
    pool: &mut BufferPool,
    i: usize,
    gy: &Matrix,
) {
    // "Should the gradient for operand `v` be materialized at all?"
    let wants = |v: Var| nodes[v.0].requires_grad;
    match &nodes[i].op {
        Op::Leaf | Op::Constant => {}
        Op::Add(a, b) => {
            accumulate_copy(nodes, grads, pool, *a, gy);
            accumulate_copy(nodes, grads, pool, *b, gy);
        }
        Op::Sub(a, b) => {
            accumulate_copy(nodes, grads, pool, *a, gy);
            if wants(*b) {
                // An existing slot subtracts in place: IEEE-754 defines
                // `acc - gy` as `acc + (-gy)`, the sum accumulating the
                // negated copy would form, without writing the copy.
                match &mut grads[b.0] {
                    Some(acc) => acc.sub_assign(gy),
                    slot @ None => {
                        let mut gb = grad_buf(pool, gy.rows(), gy.cols());
                        gy.map_into(&mut gb, |v| -v);
                        *slot = Some(gb);
                    }
                }
            }
        }
        Op::Mul(a, b) => {
            if wants(*a) {
                let mut ga = grad_buf(pool, gy.rows(), gy.cols());
                gy.mul_into(&nodes[b.0].value, &mut ga).expect("shape");
                accumulate(nodes, grads, pool, *a, ga);
            }
            if wants(*b) {
                let mut gb = grad_buf(pool, gy.rows(), gy.cols());
                gy.mul_into(&nodes[a.0].value, &mut gb).expect("shape");
                accumulate(nodes, grads, pool, *b, gb);
            }
        }
        Op::AddRow(x, r) => {
            accumulate_copy(nodes, grads, pool, *x, gy);
            if wants(*r) {
                let mut gr = grad_buf(pool, 1, gy.cols());
                gy.sum_rows_into(&mut gr);
                accumulate(nodes, grads, pool, *r, gr);
            }
        }
        Op::MulRow(x, r) => {
            let rv: &Matrix = &nodes[r.0].value;
            let xv: &Matrix = &nodes[x.0].value;
            if wants(*x) {
                let mut gx = grad_buf(pool, gy.rows(), gy.cols());
                gy.broadcast_row_into(rv.row(0), kernels::mul, &mut gx);
                accumulate(nodes, grads, pool, *x, gx);
            }
            if wants(*r) {
                let mut tmp = grad_buf(pool, gy.rows(), gy.cols());
                gy.mul_into(xv, &mut tmp).expect("shape");
                let mut gr = grad_buf(pool, 1, gy.cols());
                tmp.sum_rows_into(&mut gr);
                pool.recycle(tmp);
                accumulate(nodes, grads, pool, *r, gr);
            }
        }
        Op::Scale(x, s) => {
            let mut g = grad_buf(pool, gy.rows(), gy.cols());
            gy.scale_into(*s, &mut g);
            accumulate(nodes, grads, pool, *x, g);
        }
        Op::AddScalar(x, _) => accumulate_copy(nodes, grads, pool, *x, gy),
        Op::Matmul(a, b) => {
            let av: &Matrix = &nodes[a.0].value;
            let bv: &Matrix = &nodes[b.0].value;
            if wants(*a) {
                let mut ga = grad_buf(pool, gy.rows(), bv.rows());
                gy.matmul_nt_into(bv, &mut ga).expect("shape");
                accumulate(nodes, grads, pool, *a, ga);
            }
            if wants(*b) {
                let mut gb = grad_buf(pool, av.cols(), gy.cols());
                av.matmul_tn_into(gy, &mut gb).expect("shape");
                accumulate(nodes, grads, pool, *b, gb);
            }
        }
        Op::Relu(x) => {
            let g =
                elementwise_grad(pool, gy, &nodes[x.0].value, |v| if v > 0.0 { 1.0 } else { 0.0 });
            accumulate(nodes, grads, pool, *x, g);
        }
        Op::LeakyRelu(x, alpha) => {
            let alpha = *alpha;
            let g =
                elementwise_grad(
                    pool,
                    gy,
                    &nodes[x.0].value,
                    move |v| {
                        if v > 0.0 {
                            1.0
                        } else {
                            alpha
                        }
                    },
                );
            accumulate(nodes, grads, pool, *x, g);
        }
        Op::Tanh(x) => {
            // y = tanh(x); dy/dx = 1 - y^2 (read from the output node).
            let g = elementwise_grad(pool, gy, &nodes[i].value, |t| 1.0 - t * t);
            accumulate(nodes, grads, pool, *x, g);
        }
        Op::Sqrt(x) => {
            let g = elementwise_grad(pool, gy, &nodes[i].value, |s| 0.5 / s.max(1e-12));
            accumulate(nodes, grads, pool, *x, g);
        }
        Op::Square(x) => {
            let g = elementwise_grad(pool, gy, &nodes[x.0].value, |v| v * 2.0);
            accumulate(nodes, grads, pool, *x, g);
        }
        Op::MulConst(x, m) => {
            let mut g = grad_buf(pool, gy.rows(), gy.cols());
            gy.mul_into(m, &mut g).expect("shape");
            accumulate(nodes, grads, pool, *x, g);
        }
        Op::Sum(x) => {
            let (r, c) = nodes[x.0].value.shape();
            let mut g = grad_buf(pool, r, c);
            g.as_mut_slice().fill(gy[(0, 0)]);
            accumulate(nodes, grads, pool, *x, g);
        }
        Op::MeanRows(x) => {
            let (r, c) = nodes[x.0].value.shape();
            let inv = 1.0 / r.max(1) as f32;
            let mut g = grad_buf(pool, r, c);
            kernels::count_dispatch(r);
            for rr in 0..r {
                kernels::scale(gy.row(0), inv, g.row_mut(rr));
            }
            accumulate(nodes, grads, pool, *x, g);
        }
        Op::SumCols(x) => {
            let (r, c) = nodes[x.0].value.shape();
            let mut g = grad_buf(pool, r, c);
            for rr in 0..r {
                for cc in 0..c {
                    g[(rr, cc)] = gy[(rr, 0)];
                }
            }
            accumulate(nodes, grads, pool, *x, g);
        }
        Op::GatherRows(x, idx) => {
            let (r, c) = nodes[x.0].value.shape();
            let mut g = grad_buf(pool, r, c);
            gy.scatter_add_rows_into(idx, &mut g);
            accumulate(nodes, grads, pool, *x, g);
        }
        Op::GroupMax { x, argmax, .. } => {
            let (r, c) = nodes[x.0].value.shape();
            let mut g = grad_buf(pool, r, c);
            gy.group_max_grad_into(argmax, &mut g);
            accumulate(nodes, grads, pool, *x, g);
        }
        Op::GroupMean(x, k) => {
            let k = *k;
            let (r, c) = nodes[x.0].value.shape();
            let inv = 1.0 / k as f32;
            let mut g = grad_buf(pool, r, c);
            kernels::count_dispatch(r);
            for rr in 0..r {
                kernels::scale(gy.row(rr / k), inv, g.row_mut(rr));
            }
            accumulate(nodes, grads, pool, *x, g);
        }
        Op::GroupSoftmax(x, k) => {
            // For each group g and column c:
            // dx = s * (dy - sum_group(dy * s)), s read from the output.
            let softmax: &Matrix = &nodes[i].value;
            let mut g = grad_buf(pool, softmax.rows(), softmax.cols());
            softmax.group_softmax_grad_into(gy, *k, &mut g);
            accumulate(nodes, grads, pool, *x, g);
        }
        Op::WeightedGather { x, idx, w, k } => {
            let k = *k;
            let (r, c) = nodes[x.0].value.shape();
            let mut g = pool.zeros(r, c);
            kernels::count_dispatch(gy.rows() * k);
            for out_row in 0..gy.rows() {
                for j in 0..k {
                    let flat = out_row * k + j;
                    kernels::axpy(g.row_mut(idx[flat]), w[flat], gy.row(out_row));
                }
            }
            accumulate(nodes, grads, pool, *x, g);
        }
        Op::ConcatCols(a, b) => {
            let ca = nodes[a.0].value.cols();
            let cb = nodes[b.0].value.cols();
            if wants(*a) {
                let mut ga = grad_buf(pool, gy.rows(), ca);
                gy.block_into(0, gy.rows(), 0, ca, &mut ga);
                accumulate(nodes, grads, pool, *a, ga);
            }
            if wants(*b) {
                let mut gb = grad_buf(pool, gy.rows(), cb);
                gy.block_into(0, gy.rows(), ca, ca + cb, &mut gb);
                accumulate(nodes, grads, pool, *b, gb);
            }
        }
        Op::AffineAct { x, scale, shift, act } => {
            // The unfused `mul_row → add_row → activation` arms, in their
            // order: the shift's gradient, then the input's, then the
            // scale's. The input's gradient is `(gy * act'(y)) * scale` in
            // one pass; the activation's gradient `g1 = gy * act'(y)` is
            // materialized only for the rows' reductions.
            let (yv, sv): (&Matrix, &Matrix) = (&nodes[i].value, &nodes[scale.0].value);
            let g1 = (wants(*scale) || wants(*shift)).then(|| match *act {
                Act::Identity => pool.copy_of(gy),
                Act::Relu | Act::LeakyRelu(_) => {
                    let slope = if let Act::LeakyRelu(alpha) = *act { alpha } else { 0.0 };
                    elementwise_grad(pool, gy, yv, move |v| if v > 0.0 { 1.0 } else { slope })
                }
            });
            if let (true, Some(g1)) = (wants(*shift), &g1) {
                let mut gr = grad_buf(pool, 1, gy.cols());
                g1.sum_rows_into(&mut gr);
                accumulate(nodes, grads, pool, *shift, gr);
            }
            if wants(*x) {
                let mut gx = grad_buf(pool, gy.rows(), gy.cols());
                gy.affine_act_grad_into(yv, sv.row(0), *act, &mut gx);
                accumulate(nodes, grads, pool, *x, gx);
            }
            if let (true, Some(g1)) = (wants(*scale), &g1) {
                let mut tmp = grad_buf(pool, gy.rows(), gy.cols());
                g1.mul_into(&nodes[x.0].value, &mut tmp).expect("shape");
                let mut gr = grad_buf(pool, 1, gy.cols());
                tmp.sum_rows_into(&mut gr);
                pool.recycle(tmp);
                accumulate(nodes, grads, pool, *scale, gr);
            }
            if let Some(g1) = g1 {
                pool.recycle(g1);
            }
        }
        Op::EdgeFeatures { x, center, nbr } => {
            // One read of the `[E, 2C]` gradient per destination row adds
            // the center gather's scatter of `g_left - g_right`, then the
            // neighbor gather's scatter of `g_right` — the unfused arms'
            // accumulation, element for element.
            if wants(*x) {
                match &mut grads[x.0] {
                    Some(acc) => gy.edge_features_grad_into(center, nbr, true, acc),
                    slot @ None => {
                        let (r, c) = nodes[x.0].value.shape();
                        let mut g = grad_buf(pool, r, c);
                        gy.edge_features_grad_into(center, nbr, false, &mut g);
                        *slot = Some(g);
                    }
                }
            }
        }
        Op::EdgeConv { h, center, nbr, w, scale, shift, act, k, argmax } => {
            // The pre-activation gradient comes from `gy`, the winners, the
            // pooled value and the scale alone; it meets the weight slab by
            // slab into one transient `[E, 2C]` edge gradient, which the
            // edge-feature backward then scatters onto `h`, as the unfused
            // `edge_features` arm does.
            if wants(*h) {
                let conv = colper_tensor::EdgeConv {
                    w: &nodes[w.0].value,
                    scale: nodes[scale.0].value.row(0),
                    shift: nodes[shift.0].value.row(0),
                    act: *act,
                    k: *k,
                };
                let (r, c) = nodes[h.0].value.shape();
                let mut ge = grad_buf(pool, center.len(), 2 * c);
                gy.edge_conv_grad_into(conv, &nodes[i].value, argmax, &mut ge);
                match &mut grads[h.0] {
                    Some(acc) => ge.edge_features_grad_into(center, nbr, true, acc),
                    slot @ None => {
                        let mut g = grad_buf(pool, r, c);
                        ge.edge_features_grad_into(center, nbr, false, &mut g);
                        *slot = Some(g);
                    }
                }
                pool.recycle(ge);
            }
        }
        Op::BatchNorm { x, gamma, beta, xhat, inv_std } => {
            let n = xhat.rows() as f32;
            let gammav: &Matrix = &nodes[gamma.0].value;
            // gbeta = sum_rows(gy); ggamma = sum_rows(gy * xhat)
            let mut gbeta = pool.zeros(1, gy.cols());
            gy.sum_rows_into(&mut gbeta);
            let mut tmp = pool.zeros_like(gy);
            gy.mul_into(xhat, &mut tmp).expect("shape");
            let mut ggamma = pool.zeros(1, gy.cols());
            tmp.sum_rows_into(&mut ggamma);
            // gxhat = gy * gamma (row broadcast)
            let mut gxhat = pool.zeros_like(gy);
            gy.broadcast_row_into(gammav.row(0), kernels::mul, &mut gxhat);
            // gx = inv_std/N * (N*gxhat - sum_rows(gxhat) - xhat * sum_rows(gxhat*xhat))
            let mut s1 = pool.zeros(1, gy.cols());
            gxhat.sum_rows_into(&mut s1);
            gxhat.mul_into(xhat, &mut tmp).expect("shape");
            let mut s2 = pool.zeros(1, gy.cols());
            tmp.sum_rows_into(&mut s2);
            // gx row-by-row via kernels: gx = n*gxhat; gx -= s1; gx -= xhat*s2;
            // gx *= inv_std/n (all [1,C] rows broadcast over rows).
            let mut inv_n = pool.zeros(1, gy.cols());
            for cc in 0..gy.cols() {
                inv_n[(0, cc)] = inv_std[(0, cc)] / n;
            }
            let mut gx = pool.zeros(xhat.rows(), xhat.cols());
            kernels::count_dispatch(4 * xhat.rows());
            for rr in 0..xhat.rows() {
                let row = gx.row_mut(rr);
                kernels::scale(gxhat.row(rr), n, row);
                kernels::sub_assign(row, s1.row(0));
                kernels::sub_prod_assign(row, xhat.row(rr), s2.row(0));
                kernels::mul_assign(row, inv_n.row(0));
            }
            pool.recycle(inv_n);
            pool.recycle(tmp);
            pool.recycle(gxhat);
            pool.recycle(s1);
            pool.recycle(s2);
            accumulate(nodes, grads, pool, *x, gx);
            accumulate(nodes, grads, pool, *gamma, ggamma);
            accumulate(nodes, grads, pool, *beta, gbeta);
        }
        Op::SoftmaxCrossEntropy { logits, labels, softmax } => {
            let n = labels.len().max(1) as f32;
            let scale = gy[(0, 0)] / n;
            let mut g = pool.copy_of(softmax);
            for (r, &y) in labels.iter().enumerate() {
                g[(r, y)] -= 1.0;
            }
            g.map_inplace(|v| v * scale);
            accumulate(nodes, grads, pool, *logits, g);
        }
        Op::CwHinge { logits, active, .. } => {
            let (r, c) = nodes[logits.0].value.shape();
            let s = gy[(0, 0)];
            let mut g = pool.zeros(r, c);
            for &(row, plus, minus) in active.iter() {
                g[(row, plus)] += s;
                g[(row, minus)] -= s;
            }
            accumulate(nodes, grads, pool, *logits, g);
        }
        Op::Smoothness { colors, neighbors, k, lengths, .. } => {
            let cv: &Matrix = &nodes[colors.0].value;
            let mut g = pool.zeros(cv.rows(), cv.cols());
            smoothness_backward(cv, (neighbors, *k), lengths, gy[(0, 0)], &mut g);
            accumulate(nodes, grads, pool, *colors, g);
        }
    }
}

/// Fresh gradient storage for a kernel that fully overwrites every
/// element of its output: dirty scratch, no memset. Sound because the
/// caller's kernel writes every element before any is read.
fn grad_buf(pool: &mut BufferPool, rows: usize, cols: usize) -> Matrix {
    pool.scratch(rows, cols)
}

/// `gy * deriv(src)` in pooled storage — the shared shape of every
/// elementwise activation backward, in one pass: per element the same
/// derivative expression and the same product as a `map` into a
/// temporary followed by an elementwise `mul`, so results are
/// bit-identical to that two-pass form.
fn elementwise_grad(
    pool: &mut BufferPool,
    gy: &Matrix,
    src: &Matrix,
    deriv: impl Fn(f32) -> f32 + Sync,
) -> Matrix {
    let mut g = grad_buf(pool, gy.rows(), gy.cols());
    gy.zip_map_into(src, &mut g, |d, v| d * deriv(v));
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: &[&[f32]]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// A graph exercising every op class an attack step or a training
    /// step records: matmuls into a bias add and into the eval batch norm
    /// with its activation, the fused edge-feature and edge-convolution
    /// ops, both
    /// zero-accumulating ops (`group_mean`, `weighted_gather`), row
    /// gathers, the unfused activations, masks, reductions and all three
    /// losses. Returns the input leaf and the vars a caller reads, loss
    /// first.
    fn build(t: &mut Tape, w0: &Matrix) -> (Var, [Var; 2]) {
        let w = t.leaf_from(w0);
        let weight = t.constant(mat(&[&[0.4, -0.2, 0.1], &[0.3, 0.9, -0.5]]));
        let bias = t.constant(mat(&[&[0.05, -0.1, 0.2]]));
        let scale_row = t.constant(mat(&[&[1.5, 0.5, 2.0]]));

        let h0 = t.matmul(w, weight);
        let h1 = t.add_row(h0, bias);
        let h2 = t.tanh(h1);
        let h3 = t.mul_row(h2, scale_row);
        let h4 = t.leaky_relu(h3, 0.1);

        let mix = t.constant(mat(&[&[0.5, -0.4, 0.3], &[0.2, 0.8, -0.6], &[-0.7, 0.1, 0.9]]));
        let h5 = t.matmul(h4, mix);
        let h6 = t.affine_act(h5, scale_row, bias, Act::LeakyRelu(0.2));

        // The fused edge-feature op: [h[c] | h[j] - h[c]].
        let center = Arc::new(GatherIndex::new(vec![0, 1, 2, 3], 4));
        let nbr = Arc::new(GatherIndex::new(vec![3, 2, 1, 1], 4));
        let cat = t.edge_features(h6, center.clone(), nbr.clone());
        let conv_w = t.constant(Matrix::from_fn(6, 3, |r, c| ((r * 3 + c) as f32 * 0.7).cos()));
        let conv = t.edge_conv(h6, center, nbr, conv_w, scale_row, bias, Act::Relu, 2);
        let conv_sq = t.square(conv);
        let conv_sum = t.sum(conv_sq);
        let sm = t.group_softmax(cat, 2);
        let att = t.mul(cat, sm);
        let pooled = t.group_mean(att, 2);
        let up = t.weighted_gather(
            pooled,
            &[0, 1, 1, 0, 0, 1, 1, 0],
            &[0.7, 0.3, 0.6, 0.4, 0.2, 0.8, 0.5, 0.5],
            2,
        );
        let gm = t.group_max(up, 2);
        let wide = t.concat_cols(up, up);
        let pick = t.constant(Matrix::from_fn(12, 6, |r, c| {
            if r == c {
                1.0
            } else {
                ((r * 6 + c) as f32 * 0.37).sin() * 0.1
            }
        }));
        let logits = t.matmul(wide, pick);

        let shifted_rows = t.gather_rows(logits, &[3, 3, 0, 1]);
        let diff = t.sub(shifted_rows, logits);
        let rect = t.relu(diff);
        let masked = t.mul_const(rect, Matrix::from_fn(4, 6, |r, c| ((r + c) % 3) as f32));
        let col_means = t.mean_rows(masked);
        let row_sums = t.sum_cols(col_means);
        let sq_sums = t.square(row_sums);
        let lifted = t.add_scalar(sq_sums, 1.0);
        let root = t.sqrt(lifted);
        let ce = t.softmax_cross_entropy(logits, &[1, 2, 0, 3]);

        let hinge = t.cw_nontargeted(logits, &[0, 1, 2, 3], &[true, true, false, true]);
        let coords = mat(&[&[0.0, 0.0], &[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let smooth = t.smoothness(w, &coords, &[1, 0, 3, 2], 1);
        let sq = t.square(gm);
        let dist = t.sum(sq);
        let s1 = t.scale(hinge, 0.8);
        let s2 = t.scale(smooth, 0.05);
        let partial = t.add(dist, s1);
        let shifted = t.add_scalar(partial, 0.0);
        let with_smooth = t.add(shifted, s2);
        let with_ce = t.add(with_smooth, ce);
        let with_conv = t.add(with_ce, conv_sum);
        let loss = t.add(with_conv, root);
        t.backward(loss);
        (w, [loss, logits])
    }

    /// Records `build` once per input on one tape, resetting in between,
    /// so from the second input on every value and gradient slot is dirty
    /// scratch left by the graph before. Each kept value, the input
    /// gradient and the backward walk must equal a fresh tape's, bit for
    /// bit.
    fn assert_reused_tape_matches_fresh<const N: usize>(
        build: impl Fn(&mut Tape, &Matrix) -> (Var, [Var; N]),
        inputs: &[&Matrix],
    ) {
        let mut tape = Tape::new();
        for (round, wi) in inputs.iter().enumerate() {
            tape.reset();
            let (input, vars) = build(&mut tape, wi);
            let mut fresh = Tape::new();
            let (f_input, f_vars) = build(&mut fresh, wi);
            for (v, f_v) in vars.iter().zip(&f_vars) {
                assert_eq!(
                    bits(tape.value(*v)),
                    bits(fresh.value(*f_v)),
                    "round {round}: value of node {} diverged",
                    v.0
                );
            }
            assert_eq!(
                bits(tape.grad(input).unwrap()),
                bits(fresh.grad(f_input).unwrap()),
                "round {round}: input gradient diverged"
            );
            assert_eq!(tape.backward_visited(), fresh.backward_visited(), "round {round}");
        }
    }

    #[test]
    fn every_op_class_records_over_dirty_slots_like_a_fresh_tape() {
        let w0 = mat(&[&[0.1, -0.3], &[0.7, 0.2], &[-0.5, 0.4], &[0.9, -0.8]]);
        let w1 = mat(&[&[-0.2, 0.6], &[0.1, -0.9], &[0.3, 0.3], &[-0.4, 0.5]]);
        let w2 = mat(&[&[1.1, 0.0], &[-0.6, 0.25], &[0.05, -0.15], &[0.45, 0.85]]);
        assert_reused_tape_matches_fresh(build, &[&w0, &w1, &w2, &w1]);
    }

    #[test]
    fn two_hinges_record_over_dirty_slots_like_a_fresh_tape() {
        // Two logits branches, each with its own CW hinge: one targeted,
        // one not, with different labels and masks, each kept in its own
        // op payload.
        let build_two = |t: &mut Tape, w0: &Matrix| {
            let w = t.leaf_from(w0);
            let wa = t.constant(mat(&[&[0.6, -0.3, 0.2], &[-0.4, 0.8, 0.5]]));
            let wb = t.constant(mat(&[&[-0.2, 0.7, -0.6], &[0.9, 0.1, -0.3]]));
            let za = t.matmul(w, wa);
            let zb = t.matmul(w, wb);
            let ha = t.cw_targeted(za, &[2, 2, 0, 1], &[true, false, true, true]);
            let hb = t.cw_nontargeted(zb, &[0, 1, 1, 2], &[true, true, true, false]);
            let loss = t.add(ha, hb);
            t.backward(loss);
            (w, [loss, ha, hb, za, zb])
        };
        let w0 = mat(&[&[0.1, -0.3], &[0.7, 0.2], &[-0.5, 0.4], &[0.9, -0.8]]);
        let w1 = mat(&[&[-1.0, 0.5], &[2.0, -2.0], &[0.3, 0.9], &[-0.6, 0.1]]);
        let w2 = mat(&[&[0.8, 0.8], &[-0.2, 1.5], &[1.2, -0.7], &[0.05, -0.4]]);
        assert_reused_tape_matches_fresh(build_two, &[&w0, &w1, &w2, &w1]);
    }

    #[test]
    fn leaf_and_constant_flags() {
        let mut t = Tape::new();
        let l = t.leaf(Matrix::ones(1, 1));
        let c = t.constant(Matrix::ones(1, 1));
        assert!(t.node(l).requires_grad);
        assert!(!t.node(c).requires_grad);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn backward_on_simple_chain() {
        // loss = sum(3 * x) -> dloss/dx = 3
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0, 2.0]]).unwrap());
        let y = t.scale(x, 3.0);
        let loss = t.sum(y);
        t.backward(loss);
        assert_eq!(t.grad(x).unwrap().as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn constants_receive_no_gradient() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::ones(1, 2));
        let c = t.constant(Matrix::ones(1, 2));
        let y = t.add(x, c);
        let loss = t.sum(y);
        t.backward(loss);
        assert!(t.grad(c).is_none());
        assert!(t.grad(x).is_some());
    }

    #[test]
    fn gradient_accumulates_on_reuse() {
        // loss = sum(x + x) -> dloss/dx = 2
        let mut t = Tape::new();
        let x = t.leaf(Matrix::ones(1, 2));
        let y = t.add(x, x);
        let loss = t.sum(y);
        t.backward(loss);
        assert_eq!(t.grad(x).unwrap().as_slice(), &[2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_rejects_non_scalar() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::ones(2, 2));
        let y = t.scale(x, 1.0);
        t.backward(y);
    }

    #[test]
    fn second_backward_replaces_gradients() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::ones(1, 1));
        let y = t.scale(x, 2.0);
        let loss = t.sum(y);
        t.backward(loss);
        t.backward(loss);
        assert_eq!(t.grad(x).unwrap()[(0, 0)], 2.0);
    }

    #[test]
    fn shared_constants_are_not_copied() {
        let m = Arc::new(Matrix::filled(2, 2, 3.0));
        let mut t = Tape::new();
        let c = t.constant_shared(Arc::clone(&m));
        assert_eq!(t.value(c), &*m);
        assert_eq!(Arc::strong_count(&m), 2);
        t.reset();
        assert_eq!(Arc::strong_count(&m), 1, "reset drops the shared ref");
        assert_eq!(t.pool_stats(), (0, 0), "no pooled storage involved");
    }

    #[test]
    fn reset_tape_reaches_zero_allocation_steady_state() {
        let xv = Matrix::from_fn(6, 4, |r, c| (r * 4 + c) as f32 * 0.1 - 1.0);
        let idx = [0usize, 2, 4, 5];
        let mut t = Tape::new();
        let run = |t: &mut Tape| {
            t.reset();
            let x = t.leaf_from(&xv);
            let y = t.tanh(x);
            let z = t.gather_rows(y, &idx);
            let q = t.square(z);
            let loss = t.sum(q);
            t.backward(loss);
            t.grad(x).unwrap().clone()
        };
        let g1 = run(&mut t);
        let misses_warm = t.pool_stats().1;
        let g2 = run(&mut t);
        let g3 = run(&mut t);
        assert_eq!(g1, g2, "reused tape must be bit-identical to the first pass");
        assert_eq!(g2, g3);
        assert_eq!(
            t.pool_stats().1,
            misses_warm,
            "steady-state steps must not allocate tape value/grad storage"
        );
    }

    #[test]
    fn backward_skips_subgraphs_unreachable_from_the_loss() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::ones(1, 2));
        let y = t.tanh(x);
        let loss = t.sum(y);
        // A gradient-requiring subgraph that the loss does not depend on:
        // without the reachability pass it would still be walked.
        let dead = t.square(y);
        let _dead_sum = t.sum(dead);
        t.backward(loss);
        assert_eq!(t.backward_visited(), 3, "only loss, tanh and leaf are visited");
        assert!(t.grad(dead).is_none());
        assert!(t.grad(x).is_some());
    }
}
