//! Static tape schedules: compile one recorded forward/backward pass into
//! a fixed replay program.
//!
//! For a fixed (model, plan, point-bucket) triple the attack records the
//! exact same op sequence every step — only the adversarial leaf changes.
//! [`TapeSchedule::compile`] runs once over a freshly recorded tape and
//! partitions it:
//!
//! - **Static nodes** — every node not (transitively) fed by the input
//!   leaf. Their captured values stay in the un-reset tape and are never
//!   recomputed: constant folding of the xyz geometry chains, eval-mode
//!   batch-norm scale/shift rows and plan gathers falls out for free.
//! - **Dynamic nodes** — recomputed on every [`TapeSchedule::replay`], in
//!   recorded order, writing into the same liveness-colored arena slots
//!   (each node's pooled value buffer, assigned once at capture). Peephole
//!   fusion runs `matmul → add_row (→ activation)` and `matmul →
//!   affine_act` chains as one step — the product lands in the last op's
//!   slot and the bias add, or the eval batch norm and its activation,
//!   runs as an epilogue over each finished slab of rows — and recycles the
//!   product's buffer. `affine_act`, `edge_features` and
//!   `weighted_gather` are themselves fused tape ops, so the dynamic tape
//!   gains from them too.
//!
//! Every other dynamic node replays through the tape's own `step_forward`,
//! the function that computed its value while the graph was recorded, and
//! the backward pass through the tape's own `step_backward`: each op has
//! one forward and one backward, shared by recording and replay. Ops keep
//! every input their forward reads (gather indices, labels, the hinge's
//! mask and direction) in their own payloads, so replay needs no side
//! channel.
//!
//! The backward candidate list (reachability mark pass over `requires_grad
//! && live`) is also frozen at compile time, so replay skips graph
//! construction, the per-step reset walk, the mark pass, and every
//! dispatch decision. `step_backward` runs in compiled mode, which hands
//! out dirty scratch to kernels that fully overwrite their output; like
//! the dynamic tape, it never computes operand gradients flowing into
//! eval-mode constants. Neither can change a live value: replayed values
//! and gradients stay bit-identical to a dynamic rebuild on both SIMD legs
//! and at any thread count — and touch no allocator in steady state.

use crate::tape::{step_backward, step_forward, Node, Op, Tape, Value, Var};
use colper_tensor::{kernels, Matrix};
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

/// Process-global schedule gate, mirroring the obs trace gate: lazily
/// seeded from `COLPER_SCHEDULE`, overridable by [`set_schedule_enabled`].
static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

fn detect() -> u8 {
    match std::env::var("COLPER_SCHEDULE") {
        Ok(v) if v.is_empty() || v == "0" || v.eq_ignore_ascii_case("off") => STATE_OFF,
        _ => STATE_ON,
    }
}

/// Whether attack loops should compile and replay static schedules.
///
/// Defaults to on; `COLPER_SCHEDULE=0` (or `off`, or empty) pins the
/// dynamic tape path. Schedules are a pure amortization — results are
/// bit-identical either way.
pub fn schedule_enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_UNINIT => {
            let s = detect();
            STATE.store(s, Ordering::Relaxed);
            s == STATE_ON
        }
        s => s == STATE_ON,
    }
}

/// Overrides the `COLPER_SCHEDULE` gate for this process (tests, benches).
pub fn set_schedule_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Why a recorded graph could not be compiled into a [`TapeSchedule`].
///
/// Compilation failure is never an error condition for the attack — the
/// caller falls back to the dynamic tape, which computes the same thing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The dynamic subgraph contains an op with no replay arm (training
    /// batch-norm, whose running-statistics outputs escape the tape).
    UnsupportedOp(&'static str),
    /// A dynamic node stores its value in shared (`Arc`) storage; replay
    /// needs exclusive arena slots.
    SharedDynamicValue(usize),
    /// The designated input is not a differentiable leaf.
    InputNotLeaf,
    /// The graph has a second differentiable leaf; replay only refreshes
    /// one input, so a second leaf would silently freeze.
    MultipleLeaves,
    /// The scheduled output is not a `1x1` scalar.
    NotScalarOutput,
    /// The output does not depend on the input leaf.
    NoGradPath,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::UnsupportedOp(op) => {
                write!(f, "schedule: unsupported dynamic op {op}")
            }
            ScheduleError::SharedDynamicValue(i) => {
                write!(f, "schedule: dynamic node {i} has shared storage")
            }
            ScheduleError::InputNotLeaf => write!(f, "schedule: input is not a leaf"),
            ScheduleError::MultipleLeaves => {
                write!(f, "schedule: graph has more than one differentiable leaf")
            }
            ScheduleError::NotScalarOutput => {
                write!(f, "schedule: output is not a 1x1 scalar")
            }
            ScheduleError::NoGradPath => {
                write!(f, "schedule: output does not depend on the input leaf")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// What to compile out of a freshly recorded tape.
pub struct CompileSpec<'a> {
    /// The differentiable leaf replay refreshes each step.
    pub input: Var,
    /// The scalar loss the backward pass seeds.
    pub output: Var,
    /// Node values the caller reads after each replay (logits, loss
    /// terms, the reparameterized colors). Fusion never recycles these
    /// buffers.
    pub keep: &'a [Var],
}

/// One forward replay step: a dynamic node, or a peephole-fused group.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Recompute node `i` with its `step_forward` arm.
    Node(u32),
    /// `matmul → add_row (→ activation)` or `matmul → affine_act`: the
    /// matmul writes straight into the epilogue node's slot (its own
    /// buffer was recycled at compile) and the bias add, or the eval
    /// batch norm with its activation, runs in place over each finished
    /// slab of rows; the optional activation after an `add_row` fills its
    /// own slot.
    FusedLinear { mm: u32, epi: u32, act: Option<u32> },
}

/// A compiled, replayable attack step: the frozen op program for one
/// (model, plan, point-bucket) graph.
///
/// Built once by [`TapeSchedule::compile`] over a tape that just ran a
/// recording forward + backward pass; [`TapeSchedule::replay`] then reruns
/// the dynamic subgraph and the backward pass against the same tape with
/// zero graph construction and zero allocations.
#[derive(Debug)]
pub struct TapeSchedule {
    input: u32,
    output: u32,
    n_nodes: u32,
    steps: Vec<Step>,
    bwd_order: Vec<u32>,
    fused_groups: u64,
    arena_bytes: u64,
}

impl TapeSchedule {
    /// Compiles the tape's recorded graph into a static schedule.
    ///
    /// The tape must have just recorded the pass to freeze (forward and
    /// backward), and must not be reset afterwards — the schedule replays
    /// over the captured node storage. Fused-away intermediate buffers are
    /// recycled into the tape's pool here, which is the one-time "liveness
    /// coloring": every surviving dynamic node keeps its slot for good.
    ///
    /// On error the tape is left fully usable by the dynamic path.
    pub fn compile(tape: &mut Tape, spec: &CompileSpec<'_>) -> Result<Self, ScheduleError> {
        let n = tape.nodes.len();
        let input = spec.input.0;
        let output = spec.output.0;
        assert!(input < n && output < n, "compile: vars do not belong to this tape");

        if !matches!(tape.nodes[input].op, Op::Leaf) {
            return Err(ScheduleError::InputNotLeaf);
        }
        if !matches!(tape.nodes[input].value, Value::Owned(_)) {
            return Err(ScheduleError::SharedDynamicValue(input));
        }
        if tape.nodes[output].value.shape() != (1, 1) {
            return Err(ScheduleError::NotScalarOutput);
        }
        if !tape.nodes[output].requires_grad {
            return Err(ScheduleError::NoGradPath);
        }

        // Mark the dynamic set: everything transitively fed by the input.
        let mut dynamic = vec![false; n];
        dynamic[input] = true;
        for i in 0..n {
            if dynamic[i] {
                continue;
            }
            let mut d = false;
            tape.nodes[i].op.for_each_operand(|v| d |= dynamic[v.0]);
            dynamic[i] = d;
        }
        if !dynamic[output] {
            return Err(ScheduleError::NoGradPath);
        }

        // Validate the dynamic subgraph.
        for (i, node) in tape.nodes.iter().enumerate() {
            if matches!(node.op, Op::Leaf) && node.requires_grad && i != input {
                // A second differentiable leaf would be frozen at its
                // captured value on replay — reject rather than drift.
                return Err(ScheduleError::MultipleLeaves);
            }
            if !dynamic[i] || i == input {
                continue;
            }
            match &node.op {
                Op::BatchNorm { .. } => {
                    // Training-mode BN computes its value (and running
                    // statistics that escape the tape) in its constructor;
                    // eval-mode BN records as `affine_act` and schedules
                    // fine.
                    return Err(ScheduleError::UnsupportedOp("batch_norm_train"));
                }
                Op::Leaf | Op::Constant => {
                    unreachable!("leaves and constants have no operands")
                }
                _ => {}
            }
            if !matches!(node.value, Value::Owned(_)) {
                return Err(ScheduleError::SharedDynamicValue(i));
            }
        }

        // Freeze the backward candidate list: the same reachability mark
        // pass `Tape::backward` runs per step, done once here.
        let mut live = vec![false; n];
        live[output] = true;
        for i in (0..n).rev() {
            if !live[i] || !tape.nodes[i].requires_grad {
                continue;
            }
            tape.nodes[i].op.for_each_operand(|v| live[v.0] = true);
        }
        let bwd_order: Vec<u32> = (0..n)
            .rev()
            .filter(|&i| tape.nodes[i].requires_grad && live[i])
            .map(|i| i as u32)
            .collect();

        // Count each dynamic node's dynamic consumers: fusion may only
        // recycle a buffer its sole consumer reads, and only when neither
        // the caller (`keep`) nor any backward arm reads it afterwards.
        let mut consumers = vec![0u32; n];
        for i in 0..n {
            if !dynamic[i] || i == input {
                continue;
            }
            tape.nodes[i].op.for_each_operand(|v| {
                if dynamic[v.0] {
                    consumers[v.0] += 1;
                }
            });
        }
        let mut keep = vec![false; n];
        keep[input] = true;
        keep[output] = true;
        for v in spec.keep {
            assert!(v.0 < n, "compile: keep var does not belong to this tape");
            keep[v.0] = true;
        }

        // Peephole fusion over the recorded order. Soundness of stealing a
        // matmul's buffer: the Matmul backward arm reads only its operand
        // values, never its own output, and its sole consumer's backward
        // reads no forward value of it — AddRow propagates gradients
        // without reading any, and AffineAct reads its input only for the
        // scale row's gradient, which the peephole requires to be dead.
        let mut sole: Vec<Option<usize>> = vec![None; n];
        for i in 0..n {
            if !dynamic[i] || i == input {
                continue;
            }
            tape.nodes[i].op.for_each_operand(|v| {
                if dynamic[v.0] && consumers[v.0] == 1 {
                    sole[v.0] = Some(i);
                }
            });
        }

        // Each fused group is anchored at its *last* op (the AddRow or
        // AffineAct), not its first: other operands of that op may be
        // recorded between the pair, and running the group at the first
        // op's slot would read them one replay stale. The matmul (and any
        // trailing activation) is marked `fused` so the scan skips it; the
        // group is emitted when the scan reaches the anchor, where every
        // operand of every member is already recomputed. The activation
        // runs one slot early (at the anchor instead of its own position),
        // which is safe: its sole operand is the anchor and its consumers
        // all come later.
        let mut steps = Vec::new();
        let mut fused = vec![false; n];
        let mut pending: Vec<Option<Step>> = vec![None; n];
        let mut stolen: Vec<usize> = Vec::new();
        let mut fused_groups = 0u64;
        for i in (0..n).filter(|&i| dynamic[i] && i != input) {
            if fused[i] {
                continue;
            }
            if let Some(step) = pending[i].take() {
                steps.push(step);
                continue;
            }
            if let (Op::Matmul(..), false, Some(j)) = (&tape.nodes[i].op, keep[i], sole[i]) {
                // `Some(trailing activation)` when the pair fuses.
                let act = match tape.nodes[j].op {
                    Op::AddRow(x, r) if x.0 == i && r.0 != i => Some(sole[j].filter(|&k2| {
                        matches!(
                            tape.nodes[k2].op,
                            Op::Relu(v) | Op::LeakyRelu(v, _) | Op::Tanh(v) if v.0 == j
                        )
                    })),
                    Op::AffineAct { x, scale, shift, .. }
                        if x.0 == i
                            && scale.0 != i
                            && shift.0 != i
                            && !tape.nodes[scale.0].requires_grad =>
                    {
                        Some(None)
                    }
                    _ => None,
                };
                if let Some(act) = act {
                    fused[i] = true;
                    if let Some(k2) = act {
                        fused[k2] = true;
                    }
                    stolen.push(i);
                    fused_groups += 1;
                    pending[j] = Some(Step::FusedLinear {
                        mm: i as u32,
                        epi: j as u32,
                        act: act.map(|k2| k2 as u32),
                    });
                    continue;
                }
            }
            steps.push(Step::Node(i as u32));
        }

        // Recycle the fused-away buffers (the one-shot slot coloring) and
        // account the surviving replay arena.
        let mut stolen_mark = vec![false; n];
        for &i in &stolen {
            stolen_mark[i] = true;
            if let Value::Owned(m) = &mut tape.nodes[i].value {
                let buf = std::mem::replace(m, Matrix::zeros(0, 0));
                tape.pool.recycle(buf);
            }
        }
        let mut arena_bytes = 0u64;
        for (i, node) in tape.nodes.iter().enumerate() {
            if dynamic[i] && !stolen_mark[i] {
                arena_bytes += (node.value.len() * std::mem::size_of::<f32>()) as u64;
            }
        }

        // Pre-size each dynamic hinge's active list so replay never grows
        // it: at most every masked row goes active.
        for (i, node) in tape.nodes.iter_mut().enumerate() {
            if let (true, Op::CwHinge { mask, active, .. }) = (dynamic[i], &mut node.op) {
                let masked = mask.iter().filter(|&&m| m).count();
                active.reserve(masked.saturating_sub(active.len()));
            }
        }

        colper_obs::counters::SCHED_CAPTURES.incr();
        colper_obs::counters::SCHED_FUSED_OPS.add(fused_groups);
        colper_obs::gauges::SCHED_ARENA_BYTES.record(arena_bytes);

        Ok(TapeSchedule {
            input: input as u32,
            output: output as u32,
            n_nodes: n as u32,
            steps,
            bwd_order,
            fused_groups,
            arena_bytes,
        })
    }

    /// Replays the schedule: writes `input_value` into the input leaf's
    /// slot, recomputes every dynamic node (static nodes keep their
    /// captured values — the constant folding), then reruns the frozen
    /// backward order. Afterwards the tape serves values and gradients
    /// exactly as if the graph had been rebuilt dynamically.
    ///
    /// # Panics
    ///
    /// Panics when `tape` is not the tape (or a structurally identical
    /// successor) this schedule was compiled from, or when the input shape
    /// changed.
    pub fn replay(&self, tape: &mut Tape, input_value: &Matrix) {
        assert_eq!(
            tape.nodes.len(),
            self.n_nodes as usize,
            "replay: schedule was compiled for a different graph"
        );
        colper_obs::counters::SCHED_REPLAYS.incr();

        tape.nodes[self.input as usize].value.owned_mut().fill_from(input_value);
        for step in &self.steps {
            match *step {
                Step::Node(i) => step_forward(&mut tape.nodes, i as usize),
                Step::FusedLinear { mm, epi, act } => {
                    exec_fused_linear(&mut tape.nodes, mm as usize, epi as usize);
                    if let Some(act) = act {
                        step_forward(&mut tape.nodes, act as usize);
                    }
                }
            }
        }
        self.replay_backward(tape);
    }

    /// The frozen twin of `Tape::backward`: identical seed, traversal,
    /// dead-gradient pruning and accumulation (it calls the same
    /// `step_backward`), minus the mark pass — the candidate list was
    /// cached at compile time — and with dirty scratch for gradient
    /// buffers their kernel fully overwrites. Replayed gradients stay
    /// bit-identical to the dynamic rebuild.
    fn replay_backward(&self, tape: &mut Tape) {
        let _span = colper_obs::span!(TAPE_BACKWARD);
        let n = tape.nodes.len();
        colper_obs::counters::TAPE_BACKWARDS.incr();
        colper_obs::gauges::TAPE_NODES.record(n as u64);

        for g in tape.grads.drain(..).flatten() {
            tape.pool.recycle(g);
        }
        tape.grads.resize_with(n, || None);
        tape.visited = 0;

        let seed = {
            let mut o = tape.pool.zeros(1, 1);
            o[(0, 0)] = 1.0;
            o
        };
        tape.grads[self.output as usize] = Some(seed);

        for &i in &self.bwd_order {
            let i = i as usize;
            let Some(gy) = tape.grads[i].take() else { continue };
            tape.visited += 1;
            step_backward(&tape.nodes, &mut tape.grads, &mut tape.pool, i, &gy, true);
            tape.grads[i] = Some(gy);
        }
    }

    /// Forward replay steps (fused groups count as one).
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Peephole groups fused at compile time.
    pub fn fused_groups(&self) -> u64 {
        self.fused_groups
    }

    /// Bytes of value storage the replay writes per step (after fusion
    /// recycled the eliminated slots).
    pub fn arena_bytes(&self) -> u64 {
        self.arena_bytes
    }
}

/// Fused `matmul → add_row` or `matmul → affine_act`: the product lands
/// directly in the epilogue node's slot and the epilogue runs over each
/// finished slab of rows — `x + b` in the operand order of the dynamic
/// `kernels::add(x_row, bias, out)`, or the eval batch norm with its
/// activation exactly as `affine_act` computes it — so the result is
/// bit-identical lanewise.
fn exec_fused_linear(nodes: &mut [Node], mm: usize, epi: usize) {
    let (head, tail) = nodes.split_at_mut(epi);
    let Node { value, op, .. } = &mut tail[0];
    let (a, b) = match &head[mm].op {
        Op::Matmul(a, b) => (&head[a.0].value, &head[b.0].value),
        _ => unreachable!("fused linear without a Matmul"),
    };
    let out = value.owned_mut();
    match op {
        Op::AddRow(_, r) => {
            let bias = head[r.0].value.row(0);
            kernels::count_dispatch(out.rows());
            a.matmul_epilogue_into(b, out, |slab| {
                slab.chunks_exact_mut(bias.len()).for_each(|row| kernels::add_assign(row, bias));
            })
        }
        Op::AffineAct { scale, shift, act, .. } => {
            let (sv, bv, act) = (head[scale.0].value.row(0), head[shift.0].value.row(0), *act);
            kernels::count_dispatch(1);
            a.matmul_epilogue_into(b, out, |slab| kernels::affine_act_assign(slab, sv, bv, act))
        }
        _ => unreachable!("fused linear without an AddRow or AffineAct"),
    }
    .expect("replay fused matmul");
}

#[cfg(test)]
mod tests {
    use super::*;
    use colper_tensor::{Act, GatherIndex};
    use std::sync::Arc;

    fn mat(rows: &[&[f32]]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    /// A graph exercising every schedulable op class, including both forms
    /// of the fused-linear peephole, the fused edge-feature op and both
    /// zero-accumulating ops. Returns the loss plus the vars a caller would
    /// extract.
    fn build(t: &mut Tape, w0: &Matrix) -> (Var, Var, Var) {
        let w = t.leaf_from(w0);
        let weight = t.constant(mat(&[&[0.4, -0.2, 0.1], &[0.3, 0.9, -0.5]]));
        let bias = t.constant(mat(&[&[0.05, -0.1, 0.2]]));
        let scale_row = t.constant(mat(&[&[1.5, 0.5, 2.0]]));

        // matmul -> add_row -> tanh: the FusedLinear peephole.
        let h0 = t.matmul(w, weight);
        let h1 = t.add_row(h0, bias);
        let h2 = t.tanh(h1);
        let h3 = t.mul_row(h2, scale_row);
        let h4 = t.leaky_relu(h3, 0.1);

        // matmul -> affine_act: the FusedLinear peephole with the eval
        // batch-norm epilogue.
        let mix = t.constant(mat(&[&[0.5, -0.4, 0.3], &[0.2, 0.8, -0.6], &[-0.7, 0.1, 0.9]]));
        let h5 = t.matmul(h4, mix);
        let h6 = t.affine_act(h5, scale_row, bias, Act::LeakyRelu(0.2));

        // The fused edge-feature op: [h[c] | h[j] - h[c]].
        let center = Arc::new(GatherIndex::new(vec![0, 1, 2, 3], 4));
        let nbr = Arc::new(GatherIndex::new(vec![3, 2, 1, 1], 4));
        let cat = t.edge_features(h6, center, nbr);
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

        // Row gathers, the unfused activations, masks and reductions.
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
        let loss = t.add(with_ce, root);
        t.backward(loss);
        (loss, w, logits)
    }

    /// Replays `schedule` twice per input — the second replay runs over
    /// dirty buffers, which is what catches missing zero-fills — and
    /// compares `vars` (loss first, then the values a caller reads) and
    /// the input gradient with a dynamic rebuild.
    fn assert_replays_like_rebuild<const N: usize>(
        schedule: &TapeSchedule,
        tape: &mut Tape,
        (input, vars): (Var, [Var; N]),
        build: impl Fn(&mut Tape, &Matrix) -> (Var, [Var; N]),
        inputs: &[&Matrix],
    ) {
        for wi in inputs {
            schedule.replay(tape, wi);
            schedule.replay(tape, wi);

            let mut fresh = Tape::new();
            let (f_input, f_vars) = build(&mut fresh, wi);
            for (v, f_v) in vars.iter().zip(&f_vars) {
                assert_eq!(
                    tape.value(*v).as_slice(),
                    fresh.value(*f_v).as_slice(),
                    "replayed value of node {} diverged",
                    v.0
                );
            }
            assert_eq!(
                tape.grad(input).unwrap().as_slice(),
                fresh.grad(f_input).unwrap().as_slice(),
                "replayed gradient diverged"
            );
            assert_eq!(tape.backward_visited(), fresh.backward_visited());
        }
    }

    #[test]
    fn replay_is_bit_identical_to_dynamic_rebuild() {
        let w0 = mat(&[&[0.1, -0.3], &[0.7, 0.2], &[-0.5, 0.4], &[0.9, -0.8]]);
        let w1 = mat(&[&[-0.2, 0.6], &[0.1, -0.9], &[0.3, 0.3], &[-0.4, 0.5]]);
        let w2 = mat(&[&[1.1, 0.0], &[-0.6, 0.25], &[0.05, -0.15], &[0.45, 0.85]]);

        let mut sched_tape = Tape::new();
        let (loss, w, logits) = build(&mut sched_tape, &w0);
        let schedule = TapeSchedule::compile(
            &mut sched_tape,
            &CompileSpec { input: w, output: loss, keep: &[logits] },
        )
        .expect("graph must compile");
        assert_eq!(schedule.fused_groups(), 2, "both fused-linear forms must fire");
        assert!(schedule.arena_bytes() > 0);

        let rebuild = |t: &mut Tape, wi: &Matrix| {
            let (loss, w, logits) = build(t, wi);
            (w, [loss, logits])
        };
        assert_replays_like_rebuild(
            &schedule,
            &mut sched_tape,
            (w, [loss, logits]),
            rebuild,
            &[&w1, &w2, &w1],
        );
    }

    #[test]
    fn two_hinges_with_their_own_labels_and_masks_replay_bit_identically() {
        // Two logits branches, each with its own CW hinge: one targeted,
        // one not, with different labels and masks. Each hinge keeps its
        // inputs in its own payload, so the graph compiles with no
        // further context.
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
        let mut t = Tape::new();
        let (w, vars) = build_two(&mut t, &w0);
        let [loss, ..] = vars;
        let schedule = TapeSchedule::compile(
            &mut t,
            &CompileSpec { input: w, output: loss, keep: &vars[1..] },
        )
        .expect("a graph with two hinges must compile");
        assert_eq!(schedule.num_steps(), 5, "two matmuls, two hinges and their sum");

        let w1 = mat(&[&[-1.0, 0.5], &[2.0, -2.0], &[0.3, 0.9], &[-0.6, 0.1]]);
        let w2 = mat(&[&[0.8, 0.8], &[-0.2, 1.5], &[1.2, -0.7], &[0.05, -0.4]]);
        assert_replays_like_rebuild(&schedule, &mut t, (w, vars), build_two, &[&w1, &w0, &w2]);
    }

    #[test]
    fn static_subgraphs_are_not_recomputed() {
        let mut t = Tape::new();
        let w = t.leaf(mat(&[&[1.0, 2.0]]));
        let c = t.constant(mat(&[&[3.0, 4.0]]));
        let c2 = t.square(c); // static: must fold, not replay
        let y = t.mul(w, c2);
        let loss = t.sum(y);
        t.backward(loss);
        let schedule =
            TapeSchedule::compile(&mut t, &CompileSpec { input: w, output: loss, keep: &[] })
                .unwrap();
        // Only mul + sum are dynamic.
        assert_eq!(schedule.num_steps(), 2);
        schedule.replay(&mut t, &mat(&[&[-1.0, 0.5]]));
        assert_eq!(t.value(loss)[(0, 0)], -(1.0 * 9.0) + 0.5 * 16.0);
        assert_eq!(t.grad(w).unwrap().as_slice(), &[9.0, 16.0]);
    }

    #[test]
    fn training_batch_norm_is_rejected() {
        let mut t = Tape::new();
        let w = t.leaf(mat(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let gamma = t.constant(mat(&[&[1.0, 1.0]]));
        let beta = t.constant(mat(&[&[0.0, 0.0]]));
        let (y, _mean, _var) = t.batch_norm_train(w, gamma, beta, 1e-5);
        let loss = t.sum(y);
        t.backward(loss);
        let err = TapeSchedule::compile(&mut t, &CompileSpec { input: w, output: loss, keep: &[] })
            .unwrap_err();
        assert_eq!(err, ScheduleError::UnsupportedOp("batch_norm_train"));
    }

    #[test]
    fn second_differentiable_leaf_is_rejected() {
        let mut t = Tape::new();
        let w = t.leaf(mat(&[&[1.0]]));
        let other = t.leaf(mat(&[&[2.0]]));
        let y = t.mul(w, other);
        let loss = t.sum(y);
        t.backward(loss);
        let err = TapeSchedule::compile(&mut t, &CompileSpec { input: w, output: loss, keep: &[] })
            .unwrap_err();
        assert_eq!(err, ScheduleError::MultipleLeaves);
    }

    #[test]
    fn keep_vars_are_protected_from_fusion() {
        let build_small = |t: &mut Tape, w0: &Matrix| {
            let w = t.leaf_from(w0);
            let weight = t.constant(mat(&[&[0.4], &[-0.3]]));
            let bias = t.constant(mat(&[&[0.1]]));
            let h0 = t.matmul(w, weight);
            let h1 = t.add_row(h0, bias);
            let loss = t.sum(h1);
            t.backward(loss);
            (loss, w, h0)
        };
        let w0 = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut t = Tape::new();
        let (loss, w, h0) = build_small(&mut t, &w0);
        let schedule =
            TapeSchedule::compile(&mut t, &CompileSpec { input: w, output: loss, keep: &[h0] })
                .unwrap();
        assert_eq!(schedule.fused_groups(), 0, "kept matmul must not be fused away");
        let w1 = mat(&[&[-1.0, 0.5], &[2.0, -2.0]]);
        schedule.replay(&mut t, &w1);
        let mut fresh = Tape::new();
        let (f_loss, _f_w, f_h0) = build_small(&mut fresh, &w1);
        assert_eq!(t.value(loss).as_slice(), fresh.value(f_loss).as_slice());
        assert_eq!(t.value(h0).as_slice(), fresh.value(f_h0).as_slice());
    }

    #[test]
    fn gate_override_round_trips() {
        let before = schedule_enabled();
        set_schedule_enabled(false);
        assert!(!schedule_enabled());
        set_schedule_enabled(true);
        assert!(schedule_enabled());
        set_schedule_enabled(before);
    }
}
