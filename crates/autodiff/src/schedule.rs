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
//!   gains from them too. Independent matmuls that share one weight
//!   operand and one input shape are additionally grouped into a single
//!   strided batched GEMM step (see [`TapeSchedule::batched_groups`]).
//!
//! The backward candidate list (reachability mark pass over `requires_grad
//! && live`) is also frozen at compile time, so replay skips graph
//! construction, the per-step reset walk, the mark pass, and every
//! dispatch decision. Replay reuses the tape's own `step_backward` in
//! compiled mode, which hands out dirty scratch to kernels that fully
//! overwrite their output; like the dynamic tape, it never computes
//! operand gradients flowing into eval-mode constants. Neither can
//! change a live value: replayed values and gradients stay
//! bit-identical to a dynamic rebuild on both SIMD legs and at any
//! thread count — and touch no allocator in steady state.

use crate::ops_nn::smoothness_total;
use crate::tape::{step_backward, Node, Op, Tape, Value, Var};
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
    /// The dynamic subgraph contains a CW hinge but no [`HingeSpec`] was
    /// supplied (the op payload stores only the active set, not the
    /// labels/mask needed to recompute it).
    MissingHingeSpec,
    /// The supplied [`HingeSpec`] does not match the logits shape.
    HingeSpecMismatch,
    /// More than one dynamic CW hinge; a single [`HingeSpec`] cannot
    /// disambiguate them.
    MultipleHinges,
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
            ScheduleError::MissingHingeSpec => {
                write!(f, "schedule: graph contains a CW hinge but no HingeSpec was given")
            }
            ScheduleError::HingeSpecMismatch => {
                write!(f, "schedule: HingeSpec does not match the logits shape")
            }
            ScheduleError::MultipleHinges => {
                write!(f, "schedule: more than one dynamic CW hinge")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// The recompute context for a scheduled CW hinge (Eq. 7/8).
///
/// The recorded `CwHinge` op saves only the active set; replay needs the
/// labels, point mask and direction to rebuild it. Must describe the same
/// loss the captured graph recorded — the attack passes the exact
/// arguments it gave `cw_targeted`/`cw_nontargeted`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HingeSpec {
    /// Per-row class labels (ground truth or attack target).
    pub labels: Vec<usize>,
    /// Per-row attack mask; unmasked rows contribute no loss.
    pub mask: Vec<bool>,
    /// `true` for the targeted hinge (Eq. 7), `false` for non-targeted
    /// (Eq. 8).
    pub targeted: bool,
}

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
    /// Recompute context for the CW hinge, when the graph has one.
    pub hinge: Option<HingeSpec>,
}

/// One forward replay step: a dynamic node, or a peephole-fused group.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Recompute node `i` with the standard op arm.
    Node(u32),
    /// `matmul → add_row (→ activation)` or `matmul → affine_act`: the
    /// matmul writes straight into the epilogue node's slot (its own
    /// buffer was recycled at compile) and the bias add, or the eval
    /// batch norm with its activation, runs in place over each finished
    /// slab of rows; the optional activation after an `add_row` fills its
    /// own slot.
    FusedLinear { mm: u32, epi: u32, act: Option<u32> },
    /// A compile-time group of independent matmuls sharing one B operand,
    /// executed as a single strided batched GEMM (`mm_groups[group]`
    /// holds the member node indices in execution order).
    BatchedMatmul { group: u32 },
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
    /// Member node indices per batched-matmul step, in execution order.
    mm_groups: Vec<Vec<u32>>,
    hinge: Option<HingeSpec>,
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
    /// On error the tape is left fully usable by the dynamic path (at most
    /// some hinge capacity was pre-reserved).
    #[allow(clippy::too_many_lines)]
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

        // Validate the dynamic subgraph and locate the hinge.
        let mut hinge_node = None;
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
                    // Training-mode BN emits running-statistic matrices
                    // that escape the tape; eval-mode BN records as a
                    // constant scale/shift chain and schedules fine.
                    return Err(ScheduleError::UnsupportedOp("batch_norm_train"));
                }
                Op::Leaf | Op::Constant => {
                    unreachable!("leaves and constants have no operands")
                }
                Op::CwHinge { logits, .. } => {
                    if hinge_node.replace(i).is_some() {
                        return Err(ScheduleError::MultipleHinges);
                    }
                    let spec_h = spec.hinge.as_ref().ok_or(ScheduleError::MissingHingeSpec)?;
                    let (rows, cols) = tape.nodes[logits.0].value.shape();
                    let labels_ok = spec_h.labels.len() == rows
                        && spec_h.mask.len() == rows
                        && cols >= 2
                        && spec_h.labels.iter().all(|&y| y < cols);
                    if !labels_ok {
                        return Err(ScheduleError::HingeSpecMismatch);
                    }
                }
                _ => {}
            }
            if !matches!(node.value, Value::Owned(_)) {
                return Err(ScheduleError::SharedDynamicValue(i));
            }
        }
        let hinge = hinge_node.and_then(|_| spec.hinge.clone());

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

        // Strided batched-matmul grouping: dynamic matmuls that share one
        // B operand and one A shape can run as a single batched GEMM
        // (`Matrix::matmul_batched_with`), which is bit-identical to the
        // per-node loop by construction. Members must be mutually
        // independent (the filter below), and the replay order is then
        // re-sorted so members become adjacent: a priority topological
        // sort that sinks every member to its group's anchor (the last
        // member's recorded position). Groups are re-derived from actual
        // adjacency afterwards — a consumer forced between members splits
        // the run, degrading gracefully to smaller runs or plain nodes.
        // Single-branch production graphs have one matmul per weight and
        // compile exactly as before (the pass is a no-op without groups).
        let mut by_key: std::collections::HashMap<(usize, (usize, usize)), Vec<u32>> =
            std::collections::HashMap::new();
        for (i, &is_dynamic) in dynamic.iter().enumerate() {
            if !is_dynamic || i == input {
                continue;
            }
            if let Op::Matmul(a, b) = &tape.nodes[i].op {
                by_key.entry((b.0, tape.nodes[a.0].value.shape())).or_default().push(i as u32);
            }
        }
        let mut groups_pre: Vec<Vec<u32>> = Vec::new();
        for members in by_key.into_values() {
            if members.len() < 2 {
                continue;
            }
            // Independence filter: drop a member whose operands
            // transitively depend on an already-accepted member.
            let mut dep = vec![false; n];
            let mut kept_members: Vec<u32> = Vec::new();
            let mut mi = 0;
            for i in 0..n {
                let mut d = false;
                tape.nodes[i].op.for_each_operand(|v| d |= dep[v.0]);
                if mi < members.len() && members[mi] as usize == i {
                    mi += 1;
                    if d {
                        continue;
                    }
                    kept_members.push(i as u32);
                    dep[i] = true;
                } else {
                    dep[i] = d;
                }
            }
            if kept_members.len() >= 2 {
                groups_pre.push(kept_members);
            }
        }
        // HashMap iteration order is arbitrary; anchor keys must not be.
        groups_pre.sort_by_key(|g| g[0]);

        let mut order: Vec<u32> =
            (0..n).filter(|&i| dynamic[i] && i != input).map(|i| i as u32).collect();
        let mut member_of: Vec<Option<u32>> = vec![None; n];
        let mut mm_groups: Vec<Vec<u32>> = Vec::new();
        if !groups_pre.is_empty() {
            let mut key: Vec<u32> = (0..n as u32).collect();
            let mut pre_of: Vec<Option<u32>> = vec![None; n];
            for (g, members) in groups_pre.iter().enumerate() {
                let anchor = *members.last().expect("group is non-empty");
                for &m in members {
                    key[m as usize] = anchor;
                    pre_of[m as usize] = Some(g as u32);
                }
            }
            // Priority topological sort (Kahn): among ready nodes, run the
            // smallest (key, index). Non-members keep their own index as
            // key, so without groups this reproduces the recorded order.
            let mut indeg = vec![0u32; n];
            let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
            for &i in &order {
                tape.nodes[i as usize].op.for_each_operand(|v| {
                    if dynamic[v.0] && v.0 != input {
                        indeg[i as usize] += 1;
                        succs[v.0].push(i);
                    }
                });
            }
            let mut heap = std::collections::BinaryHeap::new();
            for &i in &order {
                if indeg[i as usize] == 0 {
                    heap.push(std::cmp::Reverse((key[i as usize], i)));
                }
            }
            let mut sorted: Vec<u32> = Vec::with_capacity(order.len());
            while let Some(std::cmp::Reverse((_, i))) = heap.pop() {
                sorted.push(i);
                for &s in &succs[i as usize] {
                    indeg[s as usize] -= 1;
                    if indeg[s as usize] == 0 {
                        heap.push(std::cmp::Reverse((key[s as usize], s)));
                    }
                }
            }
            debug_assert_eq!(sorted.len(), order.len(), "dynamic subgraph must be acyclic");
            order = sorted;

            // Re-derive groups from adjacency in the sorted order: only
            // maximal runs of two or more same-group members batch.
            let mut flush = |run: &mut Vec<u32>, member_of: &mut Vec<Option<u32>>| {
                if run.len() >= 2 {
                    let gid = mm_groups.len() as u32;
                    for &m in run.iter() {
                        member_of[m as usize] = Some(gid);
                    }
                    mm_groups.push(std::mem::take(run));
                } else {
                    run.clear();
                }
            };
            let mut run: Vec<u32> = Vec::new();
            let mut run_g: Option<u32> = None;
            for &i in &order {
                let g = pre_of[i as usize];
                if g != run_g {
                    flush(&mut run, &mut member_of);
                    run_g = g;
                }
                if g.is_some() {
                    run.push(i);
                }
            }
            flush(&mut run, &mut member_of);
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
        let mut emitted_group = vec![false; mm_groups.len()];
        for &i in &order {
            let i = i as usize;
            if fused[i] {
                continue;
            }
            // Batched members run together at the run's first slot; their
            // buffers are never stolen, so `keep` members are allowed.
            if let Some(g) = member_of[i] {
                if !emitted_group[g as usize] {
                    emitted_group[g as usize] = true;
                    steps.push(Step::BatchedMatmul { group: g });
                }
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
                            Op::Relu(v) | Op::LeakyRelu(v, _) | Op::Tanh(v) | Op::Sigmoid(v)
                            if v.0 == j
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

        // Pre-size the hinge's active list so replay never grows it: at
        // most every masked row goes active.
        if let (Some(i), Some(spec_h)) = (hinge_node, hinge.as_ref()) {
            if let Op::CwHinge { active, .. } = &mut tape.nodes[i].op {
                let masked = spec_h.mask.iter().filter(|&&m| m).count();
                if active.capacity() < masked {
                    active.reserve(masked - active.len());
                }
            }
        }

        colper_obs::counters::SCHED_CAPTURES.incr();
        colper_obs::counters::SCHED_FUSED_OPS.add(fused_groups);
        colper_obs::counters::SCHED_BATCHED_MMS.add(mm_groups.iter().map(|g| g.len() as u64).sum());
        colper_obs::gauges::SCHED_ARENA_BYTES.record(arena_bytes);

        Ok(TapeSchedule {
            input: input as u32,
            output: output as u32,
            n_nodes: n as u32,
            steps,
            bwd_order,
            mm_groups,
            hinge,
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
                Step::Node(i) => exec_node(&mut tape.nodes, i as usize, self.hinge.as_ref()),
                Step::FusedLinear { mm, epi, act } => {
                    exec_fused_linear(&mut tape.nodes, mm as usize, epi as usize);
                    if let Some(act) = act {
                        exec_node(&mut tape.nodes, act as usize, None);
                    }
                }
                Step::BatchedMatmul { group } => {
                    exec_batched_matmul(tape, &self.mm_groups[group as usize]);
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

    /// Batched-matmul groups discovered at compile time: runs of two or
    /// more independent matmuls sharing a B operand that replay as one
    /// strided batched GEMM each.
    pub fn batched_groups(&self) -> usize {
        self.mm_groups.len()
    }

    /// Bytes of value storage the replay writes per step (after fusion
    /// recycled the eliminated slots).
    pub fn arena_bytes(&self) -> u64 {
        self.arena_bytes
    }
}

/// Recomputes node `i` in place with the exact scalar recipe of its
/// recording constructor. Zero-accumulating ops (`group_mean`,
/// `weighted_gather`) clear their slot first — every other op fully
/// overwrites it (`matmul_into` self-zeroes).
#[allow(clippy::too_many_lines)]
fn exec_node(nodes: &mut [Node], i: usize, hinge: Option<&HingeSpec>) {
    // Operands precede their consumer in topological order, so split at
    // `i`: `head` holds every operand immutably, `tail[0]` is the node
    // being written.
    let (head, tail) = nodes.split_at_mut(i);
    let Node { value, op, .. } = &mut tail[0];
    match op {
        Op::Leaf | Op::Constant | Op::BatchNorm { .. } => {
            unreachable!("unschedulable op survived compilation")
        }
        Op::Add(a, b) => {
            let (a, b) = (*a, *b);
            head[a.0].value.add_into(&head[b.0].value, value.owned_mut()).expect("replay add");
        }
        Op::Sub(a, b) => {
            let (a, b) = (*a, *b);
            head[a.0].value.sub_into(&head[b.0].value, value.owned_mut()).expect("replay sub");
        }
        Op::Mul(a, b) => {
            let (a, b) = (*a, *b);
            head[a.0].value.mul_into(&head[b.0].value, value.owned_mut()).expect("replay mul");
        }
        Op::AddRow(x, r) => row_broadcast(head, *x, *r, value.owned_mut(), kernels::add),
        Op::SubRow(x, r) => row_broadcast(head, *x, *r, value.owned_mut(), kernels::sub),
        Op::MulRow(x, r) => row_broadcast(head, *x, *r, value.owned_mut(), kernels::mul),
        Op::DivRow(x, r) => row_broadcast(head, *x, *r, value.owned_mut(), kernels::div),
        Op::Scale(x, s) => {
            let (x, s) = (*x, *s);
            head[x.0].value.scale_into(s, value.owned_mut());
        }
        Op::AddScalar(x, s) => {
            let (x, s) = (*x, *s);
            head[x.0].value.map_into(value.owned_mut(), |t| t + s);
        }
        Op::Matmul(a, b) => {
            let (a, b) = (*a, *b);
            head[a.0]
                .value
                .matmul_into(&head[b.0].value, value.owned_mut())
                .expect("replay matmul");
        }
        Op::Relu(x) => head[x.0].value.map_into(value.owned_mut(), |t| t.max(0.0)),
        Op::LeakyRelu(x, alpha) => {
            let (x, alpha) = (*x, *alpha);
            head[x.0]
                .value
                .map_into(value.owned_mut(), move |t| if t > 0.0 { t } else { alpha * t });
        }
        Op::Tanh(x) => head[x.0].value.tanh_into(value.owned_mut()),
        Op::Sigmoid(x) => {
            head[x.0].value.map_into(value.owned_mut(), |t| 1.0 / (1.0 + (-t).exp()));
        }
        Op::Exp(x) => head[x.0].value.map_into(value.owned_mut(), f32::exp),
        Op::Ln(x) => head[x.0].value.map_into(value.owned_mut(), f32::ln),
        Op::Sqrt(x) => head[x.0].value.map_into(value.owned_mut(), f32::sqrt),
        Op::Square(x) => head[x.0].value.map_into(value.owned_mut(), |t| t * t),
        Op::MulConst(x, mask) => {
            let x = *x;
            head[x.0].value.mul_into(mask, value.owned_mut()).expect("replay mul_const");
        }
        Op::Sum(x) => {
            let s = head[x.0].value.sum();
            value.owned_mut()[(0, 0)] = s;
        }
        Op::Mean(x) => {
            let s = head[x.0].value.mean();
            value.owned_mut()[(0, 0)] = s;
        }
        Op::SumRows(x) => head[x.0].value.sum_rows_into(value.owned_mut()),
        Op::MeanRows(x) => head[x.0].value.mean_rows_into(value.owned_mut()),
        Op::SumCols(x) => head[x.0].value.sum_cols_into(value.owned_mut()),
        Op::GatherRows(x, idx) => {
            let x = *x;
            head[x.0].value.select_rows_into(idx, value.owned_mut());
        }
        Op::GroupMax { x, argmax } => {
            let x = *x;
            let xv: &Matrix = &head[x.0].value;
            let out = value.owned_mut();
            let groups = out.rows();
            if groups == 0 {
                return;
            }
            xv.group_max_into(xv.rows() / groups, out, argmax);
        }
        Op::GroupMean(x, k) => {
            let (x, k) = (*x, *k);
            let out = value.owned_mut();
            out.as_mut_slice().fill(0.0);
            let xv: &Matrix = &head[x.0].value;
            kernels::count_dispatch(xv.rows());
            for g in 0..out.rows() {
                for j in 0..k {
                    kernels::add_assign(out.row_mut(g), xv.row(g * k + j));
                }
            }
            out.map_inplace(|v| v / k as f32);
        }
        Op::GroupSoftmax { x, k, softmax } => {
            let (x, k) = (*x, *k);
            let out = value.owned_mut();
            head[x.0].value.group_softmax_into(k, out);
            softmax.as_mut_slice().copy_from_slice(out.as_slice());
        }
        Op::WeightedGather { x, idx, w, k } => {
            let (x, k) = (*x, *k);
            let out = value.owned_mut();
            out.as_mut_slice().fill(0.0);
            let xv: &Matrix = &head[x.0].value;
            kernels::count_dispatch(idx.len());
            for r in 0..out.rows() {
                for j in 0..k {
                    let flat = r * k + j;
                    kernels::axpy(out.row_mut(r), w[flat], xv.row(idx[flat]));
                }
            }
        }
        Op::ConcatCols(a, b) => {
            let (a, b) = (*a, *b);
            head[a.0]
                .value
                .hstack_into(&head[b.0].value, value.owned_mut())
                .expect("replay concat_cols");
        }
        Op::SliceCols(x, c0, c1) => {
            let (x, c0, c1) = (*x, *c0, *c1);
            let rows = head[x.0].value.rows();
            head[x.0].value.block_into(0, rows, c0, c1, value.owned_mut());
        }
        Op::AffineAct { x, scale, shift, act } => {
            let (sv, bv) = (head[scale.0].value.row(0), head[shift.0].value.row(0));
            head[x.0].value.affine_act_into(sv, bv, *act, value.owned_mut());
        }
        Op::EdgeFeatures { x, center, nbr } => {
            head[x.0].value.edge_features_into(center, nbr, value.owned_mut());
        }
        Op::SoftmaxCrossEntropy { logits, labels, softmax } => {
            let lg = *logits;
            let z: &Matrix = &head[lg.0].value;
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
        Op::CwHinge { logits, active } => {
            let spec = hinge.expect("scheduled CwHinge requires a HingeSpec");
            let lg = *logits;
            let z: &Matrix = &head[lg.0].value;
            active.clear();
            let mut loss = 0.0f32;
            for r in 0..z.rows() {
                if !spec.mask[r] {
                    continue;
                }
                let y = spec.labels[r];
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
                let (v, plus, minus) =
                    if spec.targeted { (zmax - zy, jmax, y) } else { (zy - zmax, y, jmax) };
                if v > 0.0 {
                    loss += v;
                    active.push((r, plus, minus));
                }
            }
            value.owned_mut()[(0, 0)] = loss;
        }
        Op::Smoothness { colors, coords, neighbors, k } => {
            let total = smoothness_total(&head[colors.0].value, coords, neighbors, *k);
            value.owned_mut()[(0, 0)] = total;
        }
    }
}

/// Shared body of the row-broadcast replay arms, executing the same
/// per-row kernel calls as the recording `row_broadcast`.
fn row_broadcast(
    head: &[Node],
    x: Var,
    row: Var,
    out: &mut Matrix,
    k: fn(&[f32], &[f32], &mut [f32]),
) {
    head[x.0].value.broadcast_row_into(head[row.0].value.row(0), k, out);
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

/// One strided batched GEMM over a compile-time group of independent
/// matmul nodes sharing a B operand: the member output buffers are moved
/// into the tape's `batch_vals` scratch, overwritten by
/// [`Matrix::matmul_batched_with`] (bit-identical to the per-node loop by
/// construction), and moved back. Both moves are `mem::replace` with
/// empty placeholders and the `Vec` keeps its capacity, so steady-state
/// replays stay allocation-free.
fn exec_batched_matmul(tape: &mut Tape, members: &[u32]) {
    tape.batch_vals.clear();
    let mut b_idx = usize::MAX;
    for &gi in members {
        let gi = gi as usize;
        let out = std::mem::replace(tape.nodes[gi].value.owned_mut(), Matrix::zeros(0, 0));
        tape.batch_vals.push(out);
        if let Op::Matmul(_, b) = &tape.nodes[gi].op {
            b_idx = b.0;
        }
    }
    let nodes = &tape.nodes;
    let a_of = |j: usize| -> &Matrix {
        match &nodes[members[j] as usize].op {
            Op::Matmul(a, _) => &nodes[a.0].value,
            _ => unreachable!("batched group member is not a matmul"),
        }
    };
    Matrix::matmul_batched_with(members.len(), a_of, &nodes[b_idx].value, &mut tape.batch_vals)
        .expect("replay batched matmul");
    for (j, &gi) in members.iter().enumerate() {
        let out = std::mem::replace(&mut tape.batch_vals[j], Matrix::zeros(0, 0));
        *tape.nodes[gi as usize].value.owned_mut() = out;
    }
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
        let logits = t.slice_cols(wide, 0, 6);

        let hinge = t.cw_nontargeted(logits, &[0, 1, 2, 3], &[true, true, false, true]);
        let coords = mat(&[&[0.0, 0.0], &[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let smooth = t.smoothness(w, &coords, &[1, 0, 3, 2], 1);
        let sq = t.square(gm);
        let dist = t.sum(sq);
        let s1 = t.scale(hinge, 0.8);
        let s2 = t.scale(smooth, 0.05);
        let partial = t.add(dist, s1);
        let shifted = t.add_scalar(partial, 0.0);
        let loss = t.add(shifted, s2);
        t.backward(loss);
        (loss, w, logits)
    }

    fn spec_for(loss: Var, w: Var, logits: Var) -> (Vec<Var>, HingeSpec) {
        let keep = vec![logits];
        let hinge = HingeSpec {
            labels: vec![0, 1, 2, 3],
            mask: vec![true, true, false, true],
            targeted: false,
        };
        let _ = (loss, w);
        (keep, hinge)
    }

    #[test]
    fn replay_is_bit_identical_to_dynamic_rebuild() {
        let w0 = mat(&[&[0.1, -0.3], &[0.7, 0.2], &[-0.5, 0.4], &[0.9, -0.8]]);
        let w1 = mat(&[&[-0.2, 0.6], &[0.1, -0.9], &[0.3, 0.3], &[-0.4, 0.5]]);
        let w2 = mat(&[&[1.1, 0.0], &[-0.6, 0.25], &[0.05, -0.15], &[0.45, 0.85]]);

        let mut sched_tape = Tape::new();
        let (loss, w, logits) = build(&mut sched_tape, &w0);
        let (keep, hinge) = spec_for(loss, w, logits);
        let schedule = TapeSchedule::compile(
            &mut sched_tape,
            &CompileSpec { input: w, output: loss, keep: &keep, hinge: Some(hinge) },
        )
        .expect("graph must compile");
        assert_eq!(schedule.fused_groups(), 2, "both fused-linear forms must fire");
        assert!(schedule.arena_bytes() > 0);

        // Replay twice per input: the second replay runs over dirty
        // buffers, which is what catches missing zero-fills.
        for wi in [&w1, &w2, &w1] {
            schedule.replay(&mut sched_tape, wi);
            schedule.replay(&mut sched_tape, wi);

            let mut fresh = Tape::new();
            let (f_loss, f_w, f_logits) = build(&mut fresh, wi);
            assert_eq!(
                sched_tape.value(loss).as_slice(),
                fresh.value(f_loss).as_slice(),
                "replayed loss diverged"
            );
            assert_eq!(
                sched_tape.value(logits).as_slice(),
                fresh.value(f_logits).as_slice(),
                "replayed logits diverged"
            );
            assert_eq!(
                sched_tape.grad(w).unwrap().as_slice(),
                fresh.grad(f_w).unwrap().as_slice(),
                "replayed gradient diverged"
            );
            assert_eq!(sched_tape.backward_visited(), fresh.backward_visited());
        }
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
        let schedule = TapeSchedule::compile(
            &mut t,
            &CompileSpec { input: w, output: loss, keep: &[], hinge: None },
        )
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
        let err = TapeSchedule::compile(
            &mut t,
            &CompileSpec { input: w, output: loss, keep: &[], hinge: None },
        )
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
        let err = TapeSchedule::compile(
            &mut t,
            &CompileSpec { input: w, output: loss, keep: &[], hinge: None },
        )
        .unwrap_err();
        assert_eq!(err, ScheduleError::MultipleLeaves);
    }

    #[test]
    fn hinge_without_spec_is_rejected() {
        let mut t = Tape::new();
        let w = t.leaf(mat(&[&[1.0, -1.0], &[0.5, 2.0]]));
        let hinge = t.cw_nontargeted(w, &[0, 1], &[true, true]);
        t.backward(hinge);
        let err = TapeSchedule::compile(
            &mut t,
            &CompileSpec { input: w, output: hinge, keep: &[], hinge: None },
        )
        .unwrap_err();
        assert_eq!(err, ScheduleError::MissingHingeSpec);
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
        let keep = [h0];
        let schedule = TapeSchedule::compile(
            &mut t,
            &CompileSpec { input: w, output: loss, keep: &keep, hinge: None },
        )
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
    fn independent_same_weight_matmuls_batch_into_one_gemm() {
        // Two branches multiply by the same weight with the same input
        // shape and are mutually independent — exactly the shape-bucket
        // condition, so compile must group them into one batched GEMM
        // step and replay must stay bit-identical to a dynamic rebuild.
        let build_two = |t: &mut Tape, w0: &Matrix| {
            let w = t.leaf_from(w0);
            let b = t.constant(mat(&[&[0.4, -0.2], &[0.3, 0.9]]));
            let mm1 = t.matmul(w, b);
            let a2 = t.square(w);
            let mm2 = t.matmul(a2, b);
            let s1 = t.sum(mm1);
            let s2 = t.sum(mm2);
            let loss = t.add(s1, s2);
            t.backward(loss);
            (loss, w, mm1)
        };
        let w0 = mat(&[&[0.1, -0.3], &[0.7, 0.2]]);
        let mut t = Tape::new();
        let (loss, w, mm1) = build_two(&mut t, &w0);
        let keep = [mm1]; // batched members keep their buffers: `keep` is allowed
        let schedule = TapeSchedule::compile(
            &mut t,
            &CompileSpec { input: w, output: loss, keep: &keep, hinge: None },
        )
        .unwrap();
        assert_eq!(schedule.batched_groups(), 1, "the two independent matmuls must batch");
        let w1 = mat(&[&[-1.0, 0.5], &[2.0, -2.0]]);
        for wi in [&w1, &w0, &w1] {
            // Twice per input: the second replay runs over dirty buffers.
            schedule.replay(&mut t, wi);
            schedule.replay(&mut t, wi);
            let mut fresh = Tape::new();
            let (f_loss, f_w, f_mm1) = build_two(&mut fresh, wi);
            assert_eq!(t.value(loss).as_slice(), fresh.value(f_loss).as_slice());
            assert_eq!(t.value(mm1).as_slice(), fresh.value(f_mm1).as_slice());
            assert_eq!(
                t.grad(w).unwrap().as_slice(),
                fresh.grad(f_w).unwrap().as_slice(),
                "batched replay gradient diverged"
            );
        }
    }

    #[test]
    fn dependent_matmuls_do_not_batch() {
        // mm2 consumes mm1's output: same B operand, same A shape, but
        // serial — the independence filter must reject the pair.
        let build_chain = |t: &mut Tape, w0: &Matrix| {
            let w = t.leaf_from(w0);
            let b = t.constant(mat(&[&[0.5, 0.3], &[-0.2, 0.8]]));
            let mm1 = t.matmul(w, b);
            let mm2 = t.matmul(mm1, b);
            let loss = t.sum(mm2);
            t.backward(loss);
            (loss, w)
        };
        let w0 = mat(&[&[0.2, -0.4], &[0.6, 0.1]]);
        let mut t = Tape::new();
        let (loss, w) = build_chain(&mut t, &w0);
        let schedule = TapeSchedule::compile(
            &mut t,
            &CompileSpec { input: w, output: loss, keep: &[], hinge: None },
        )
        .unwrap();
        assert_eq!(schedule.batched_groups(), 0, "serial matmuls must not batch");
        let w1 = mat(&[&[1.0, 0.5], &[-0.7, 2.0]]);
        schedule.replay(&mut t, &w1);
        let mut fresh = Tape::new();
        let (f_loss, f_w) = build_chain(&mut fresh, &w1);
        assert_eq!(t.value(loss).as_slice(), fresh.value(f_loss).as_slice());
        assert_eq!(t.grad(w).unwrap().as_slice(), fresh.grad(f_w).unwrap().as_slice());
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
