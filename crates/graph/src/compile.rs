//! The compile pipeline: level/scale inference, automatic
//! rescale/relin/alignment insertion, depth validation against the
//! `ParamSet`, constant folding, CSE, dead-node pruning, and wave lowering.
//!
//! Compilation is a single forward pass over the build-ordered (therefore
//! topologically ordered) node list, emitting a flat list of [`Step`]s:
//! the concrete, already-legalized operations execution will run. Every
//! step records the level and scale of its result, computed with the same
//! arithmetic the real ops use (`q_at` chain primes, Δ from the params),
//! so a program that compiles cannot hit a level/scale error at run time —
//! and a program that would is rejected here with a typed [`GraphError`]
//! before any ciphertext is touched.
//!
//! **Multiplication semantics:** `mul` is *multiply-and-maintain* — the
//! compiler fuses the relinearization into the HMULT launch and inserts
//! the canonical rescale right after, so the product comes back at scale
//! ≈ Δ one level down, ready for further ops. Explicit `rescale` nodes
//! drop a *further* prime (the double-prime idiom).

use std::collections::HashMap;

use crate::ir::{operands, Graph, NodeOp};
use wd_ckks::cipher::{relative_eq, SCALE_REL_TOL};
use wd_ckks::params::CkksParams;
use wd_fault::WdError;

/// A typed compile-time rejection. Everything here is detected before any
/// ciphertext exists, which is the point: the serving layer can refuse a
/// bad program at admission instead of burning keyswitches on it.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// The graph declares no outputs — nothing to compute.
    NoOutputs,
    /// A path through the program needs more rescales than the modulus
    /// chain has levels.
    DepthExhausted {
        /// The node whose rescale found the chain empty.
        node: usize,
        /// Multiplicative levels the `ParamSet` provides.
        available: usize,
    },
    /// Two operands reached a binary op with scales further apart than
    /// [`SCALE_REL_TOL`] — adding them would silently corrupt the message.
    ScaleDivergence {
        /// The offending node.
        node: usize,
        /// Left operand's inferred scale.
        lhs: f64,
        /// Right operand's inferred scale.
        rhs: f64,
    },
    /// A rotation uses a step the declared rotation-key set cannot serve.
    UnknownRotation {
        /// The offending node.
        node: usize,
        /// The requested rotation amount.
        step: isize,
    },
    /// An output node folded to a pure constant — there is no ciphertext
    /// to return. (Fold it yourself; FHE is for secrets.)
    ConstantOutput {
        /// The offending output node.
        node: usize,
    },
    /// A `LevelDrop` node tries to *raise* the level.
    InvalidLevelDrop {
        /// The offending node.
        node: usize,
        /// The operand's inferred level.
        from: usize,
        /// The requested target level.
        to: usize,
    },
}

impl core::fmt::Display for GraphError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GraphError::NoOutputs => write!(f, "graph has no outputs"),
            GraphError::DepthExhausted { node, available } => write!(
                f,
                "modulus chain depth exhausted at node {node}: the chain provides {available} levels"
            ),
            GraphError::ScaleDivergence { node, lhs, rhs } => write!(
                f,
                "scale divergence at node {node}: {lhs:.3e} vs {rhs:.3e} (tolerance {SCALE_REL_TOL:.1e})"
            ),
            GraphError::UnknownRotation { node, step } => {
                write!(f, "node {node} rotates by {step}, not in the declared key set")
            }
            GraphError::ConstantOutput { node } => {
                write!(f, "output node {node} is a compile-time constant")
            }
            GraphError::InvalidLevelDrop { node, from, to } => {
                write!(f, "node {node} cannot raise level {from} to {to}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

impl From<GraphError> for WdError {
    fn from(e: GraphError) -> Self {
        WdError::InvalidParams(format!("graph compile: {e}"))
    }
}

/// Compilation knobs.
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {
    /// The rotation steps evaluation keys exist for. `Some` enables the
    /// compile-time [`GraphError::UnknownRotation`] check; `None` defers
    /// missing keys to execution (`MissingKey`).
    pub rotation_steps: Option<Vec<isize>>,
}

impl CompileOptions {
    /// Defaults: rotation steps unchecked.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares the available rotation steps, enabling the compile-time
    /// unknown-rotation check.
    #[must_use]
    pub fn with_rotation_steps(mut self, steps: &[isize]) -> Self {
        self.rotation_steps = Some(steps.to_vec());
        self
    }
}

/// One legalized operation of a compiled program. Operands are indices of
/// earlier steps.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Step {
    /// The `i`-th program input.
    Input(usize),
    /// Ciphertext addition.
    HAdd(usize, usize),
    /// Ciphertext subtraction.
    HSub(usize, usize),
    /// Slot-wise negation.
    Neg(usize),
    /// Addition of a broadcast constant (encoded at the operand's
    /// level/scale at execution).
    AddConst(usize, f64),
    /// Fused HMULT + relinearization.
    MulRelin(usize, usize),
    /// PMULT by a broadcast constant (encoded at the operand's level,
    /// scale Δ, at execution).
    PMultConst(usize, f64),
    /// Slot rotation.
    HRotate(usize, isize),
    /// RESCALE by one chain prime.
    Rescale(usize),
    /// Modulus switch down to the given level.
    LevelDrop(usize, usize),
}

impl Step {
    /// Short op name, matching the executor's `BatchOp::kind` vocabulary.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Step::Input(_) => "input",
            Step::HAdd(..) => "hadd",
            Step::HSub(..) => "hsub",
            Step::Neg(_) => "hneg",
            Step::AddConst(..) => "add_plain",
            Step::MulRelin(..) => "hmult",
            Step::PMultConst(..) => "pmult",
            Step::HRotate(..) => "hrotate",
            Step::Rescale(_) => "rescale",
            Step::LevelDrop(..) => "level_drop",
        }
    }

    /// The step's operand indices.
    pub(crate) fn deps(&self) -> Vec<usize> {
        match *self {
            Step::Input(_) => vec![],
            Step::HAdd(a, b) | Step::HSub(a, b) | Step::MulRelin(a, b) => vec![a, b],
            Step::Neg(a)
            | Step::AddConst(a, _)
            | Step::PMultConst(a, _)
            | Step::HRotate(a, _)
            | Step::Rescale(a)
            | Step::LevelDrop(a, _) => vec![a],
        }
    }
}

/// A step plus the inferred (level, scale) of its result.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StepInfo {
    pub(crate) op: Step,
    pub(crate) level: usize,
    pub(crate) scale: f64,
}

/// What the compiler did, for observability and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Nodes in the source graph (after build-time value numbering).
    pub nodes: usize,
    /// Build-time value-numbering hits (structurally identical insertions).
    pub build_cse_hits: u64,
    /// Compile-pass CSE hits over the legalized steps (includes duplicate
    /// compiler insertions coalesced).
    pub cse_hits: u64,
    /// Source nodes unreachable from any output, skipped entirely.
    pub pruned: usize,
    /// Constant subexpressions folded at compile time.
    pub folded: usize,
    /// Rescales the compiler inserted after multiplications.
    pub inserted_rescales: usize,
    /// Relinearizations the compiler inserted (fused into HMULT launches).
    pub inserted_relins: usize,
    /// Level-alignment drops the compiler inserted before binary ops.
    pub inserted_aligns: usize,
    /// Steps in the legalized program.
    pub steps: usize,
    /// Topological waves in the schedule.
    pub waves: usize,
}

/// A compiled, validated, schedulable program: legal by construction,
/// reusable across executions and across input sets.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    pub(crate) steps: Vec<StepInfo>,
    /// Topological layers of step indices: every step's operands live in
    /// an earlier wave (inputs are wave-less), so the steps of one wave
    /// are mutually independent — one `BatchOp` batch each.
    pub(crate) waves: Vec<Vec<usize>>,
    /// Per wave, the steps whose last reader runs in that wave: execution
    /// drops their values right after it. Outputs are never listed.
    pub(crate) releases: Vec<Vec<usize>>,
    pub(crate) outputs: Vec<usize>,
    pub(crate) input_count: usize,
    pub(crate) input_level: usize,
    pub(crate) input_scale: f64,
    stats: CompileStats,
}

impl CompiledProgram {
    /// What compilation did (node/step counts, CSE hits, insertions).
    pub fn stats(&self) -> &CompileStats {
        &self.stats
    }

    /// Ciphertext inputs the program expects, in declaration order.
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// The level inputs must arrive at.
    pub fn input_level(&self) -> usize {
        self.input_level
    }

    /// The scale inputs must arrive at (within [`SCALE_REL_TOL`]).
    pub fn input_scale(&self) -> f64 {
        self.input_scale
    }

    /// Ciphertext outputs the program produces.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Waves in the schedule (the program's critical-path length).
    pub fn wave_count(&self) -> usize {
        self.waves.len()
    }

    /// Legalized steps (inputs included).
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// The widest wave — the program's exploitable graph-level parallelism.
    pub fn max_wave_width(&self) -> usize {
        self.waves.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The schedule, step by step: for each wave, each step's op-kind
    /// label (the `BatchOp::kind` vocabulary) and the level it executes
    /// at — the shape cost models and reports need, without exposing the
    /// internal step representation.
    pub fn wave_profile(&self) -> Vec<Vec<(&'static str, usize)>> {
        self.waves
            .iter()
            .map(|w| {
                w.iter()
                    .map(|&s| (self.steps[s].op.kind(), self.steps[s].level))
                    .collect()
            })
            .collect()
    }

    /// The schedule as step indices, one entry per wave: the steps the wave
    /// runs and the steps whose values execution drops right after it (their
    /// last reader ran in it; outputs are never dropped). Steps are numbered
    /// `0..step_count()`.
    pub fn schedule(&self) -> impl Iterator<Item = (&[usize], &[usize])> {
        self.waves
            .iter()
            .zip(&self.releases)
            .map(|(w, r)| (w.as_slice(), r.as_slice()))
    }

    /// The operand step indices of step `s`; empty for a program input.
    ///
    /// # Panics
    ///
    /// Panics if `s >= step_count()`.
    pub fn step_operands(&self, s: usize) -> Vec<usize> {
        self.steps[s].op.deps()
    }

    /// The step index of each declared output, in declaration order.
    pub fn output_steps(&self) -> &[usize] {
        &self.outputs
    }

    /// Levels consumed from input to the deepest output.
    pub fn depth_consumed(&self) -> usize {
        self.outputs
            .iter()
            .map(|&s| self.input_level - self.steps[s].level)
            .max()
            .unwrap_or(0)
    }
}

/// The value a source node compiled to: a concrete step, or a still-
/// symbolic constant.
#[derive(Debug, Clone, Copy)]
enum Value {
    Ct(usize),
    Const(f64),
}

/// The CSE key over legalized steps (constants keyed by bit pattern,
/// commutative pairs canonicalized).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum StepKey {
    Input(usize),
    HAdd(usize, usize),
    HSub(usize, usize),
    Neg(usize),
    AddConst(usize, u64),
    MulRelin(usize, usize),
    PMultConst(usize, u64),
    HRotate(usize, isize),
    Rescale(usize),
    LevelDrop(usize, usize),
}

impl StepKey {
    fn of(step: &Step) -> Self {
        match *step {
            Step::Input(i) => StepKey::Input(i),
            Step::HAdd(a, b) => StepKey::HAdd(a.min(b), a.max(b)),
            Step::HSub(a, b) => StepKey::HSub(a, b),
            Step::Neg(a) => StepKey::Neg(a),
            Step::AddConst(a, c) => StepKey::AddConst(a, c.to_bits()),
            Step::MulRelin(a, b) => StepKey::MulRelin(a.min(b), a.max(b)),
            Step::PMultConst(a, c) => StepKey::PMultConst(a, c.to_bits()),
            Step::HRotate(a, r) => StepKey::HRotate(a, r),
            Step::Rescale(a) => StepKey::Rescale(a),
            Step::LevelDrop(a, l) => StepKey::LevelDrop(a, l),
        }
    }
}

/// The forward-pass state.
struct Lowering<'p> {
    params: &'p CkksParams,
    steps: Vec<StepInfo>,
    cse: HashMap<StepKey, usize>,
    stats: CompileStats,
}

impl Lowering<'_> {
    /// Emits a step (CSE'd against identical earlier steps) and returns
    /// its index.
    fn emit(&mut self, op: Step, level: usize, scale: f64) -> usize {
        let key = StepKey::of(&op);
        if let Some(&idx) = self.cse.get(&key) {
            self.stats.cse_hits += 1;
            return idx;
        }
        let idx = self.steps.len();
        self.steps.push(StepInfo { op, level, scale });
        self.cse.insert(key, idx);
        idx
    }

    /// Modulus-switches `v` down to `target` if it sits higher.
    fn align_to(&mut self, v: usize, target: usize) -> usize {
        let info = &self.steps[v];
        if info.level == target {
            return v;
        }
        debug_assert!(info.level > target);
        let scale = info.scale;
        self.stats.inserted_aligns += 1;
        self.emit(Step::LevelDrop(v, target), target, scale)
    }

    /// The canonical rescale after a multiplication: drops the last chain
    /// prime, dividing the scale by it. `node` attributes a depth error.
    fn rescale(&mut self, v: usize, node: usize) -> Result<usize, GraphError> {
        let (level, scale) = (self.steps[v].level, self.steps[v].scale);
        if level == 0 {
            return Err(GraphError::DepthExhausted {
                node,
                available: self.params.max_level(),
            });
        }
        let dropped = self.params.q_at(level)[level];
        Ok(self.emit(Step::Rescale(v), level - 1, scale / dropped as f64))
    }
}

impl Graph {
    /// Compiles the graph against a parameter set: infers levels and
    /// scales, inserts rescales/relins/alignments, validates depth and
    /// rotations, folds constants, CSE-prunes, and lowers to a wave
    /// schedule.
    ///
    /// # Errors
    ///
    /// Any [`GraphError`]; nothing ciphertext-shaped is touched on the
    /// error path.
    pub fn compile(
        &self,
        params: &CkksParams,
        opts: &CompileOptions,
    ) -> Result<CompiledProgram, GraphError> {
        let _span = wd_trace::span("graph", "compile");
        if self.outputs().is_empty() {
            return Err(GraphError::NoOutputs);
        }
        let input_level = params.max_level();
        let input_scale = params.scale();

        // Dead-node pruning: only nodes reachable from an output compile.
        let nodes = self.nodes();
        let mut live = vec![false; nodes.len()];
        let mut stack: Vec<usize> = self.outputs().iter().map(|o| o.index()).collect();
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut live[i], true) {
                continue;
            }
            stack.extend(operands(&nodes[i]).iter().map(|o| o.index()));
        }

        let mut lo = Lowering {
            params,
            steps: Vec::new(),
            cse: HashMap::new(),
            stats: CompileStats {
                nodes: nodes.len(),
                build_cse_hits: self.cse_hits(),
                pruned: live.iter().filter(|&&l| !l).count(),
                ..CompileStats::default()
            },
        };
        let mut values: Vec<Option<Value>> = vec![None; nodes.len()];

        for (i, op) in nodes.iter().enumerate() {
            if !live[i] {
                continue;
            }
            // invariant: operands precede their users in build order, so
            // every operand's value is already resolved.
            let val = |j: crate::ir::NodeId| values[j.index()].expect("topological order");
            let v = match *op {
                NodeOp::Input(idx) => {
                    Value::Ct(lo.emit(Step::Input(idx), input_level, input_scale))
                }
                NodeOp::Const(c) => Value::Const(c),
                NodeOp::HAdd(a, b) => match (val(a), val(b)) {
                    (Value::Const(x), Value::Const(y)) => {
                        lo.stats.folded += 1;
                        Value::Const(x + y)
                    }
                    (Value::Ct(s), Value::Const(c)) | (Value::Const(c), Value::Ct(s)) => {
                        let (level, scale) = (lo.steps[s].level, lo.steps[s].scale);
                        Value::Ct(lo.emit(Step::AddConst(s, c), level, scale))
                    }
                    (Value::Ct(sa), Value::Ct(sb)) => {
                        Value::Ct(lo.binary(i, sa, sb, Step::HAdd)?)
                    }
                },
                NodeOp::HSub(a, b) => match (val(a), val(b)) {
                    (Value::Const(x), Value::Const(y)) => {
                        lo.stats.folded += 1;
                        Value::Const(x - y)
                    }
                    (Value::Ct(s), Value::Const(c)) => {
                        let (level, scale) = (lo.steps[s].level, lo.steps[s].scale);
                        Value::Ct(lo.emit(Step::AddConst(s, -c), level, scale))
                    }
                    (Value::Const(c), Value::Ct(s)) => {
                        let (level, scale) = (lo.steps[s].level, lo.steps[s].scale);
                        let neg = lo.emit(Step::Neg(s), level, scale);
                        Value::Ct(lo.emit(Step::AddConst(neg, c), level, scale))
                    }
                    (Value::Ct(sa), Value::Ct(sb)) => {
                        Value::Ct(lo.binary(i, sa, sb, Step::HSub)?)
                    }
                },
                NodeOp::HMult(a, b) => match (val(a), val(b)) {
                    (Value::Const(x), Value::Const(y)) => {
                        lo.stats.folded += 1;
                        Value::Const(x * y)
                    }
                    (Value::Ct(s), Value::Const(c)) | (Value::Const(c), Value::Ct(s)) => {
                        // PMULT by Δ-encoded broadcast const, then the
                        // canonical maintenance rescale.
                        let (level, scale) = (lo.steps[s].level, lo.steps[s].scale);
                        let prod = lo.emit(Step::PMultConst(s, c), level, scale * params.scale());
                        lo.stats.inserted_rescales += 1;
                        Value::Ct(lo.rescale(prod, i)?)
                    }
                    (Value::Ct(sa), Value::Ct(sb)) => {
                        // Align, fused mult+relin, maintenance rescale.
                        let target = lo.steps[sa].level.min(lo.steps[sb].level);
                        let (sa, sb) = (lo.align_to(sa, target), lo.align_to(sb, target));
                        let scale = lo.steps[sa].scale * lo.steps[sb].scale;
                        let prod = lo.emit(Step::MulRelin(sa, sb), target, scale);
                        lo.stats.inserted_relins += 1;
                        lo.stats.inserted_rescales += 1;
                        Value::Ct(lo.rescale(prod, i)?)
                    }
                },
                NodeOp::HRotate(a, r) => match val(a) {
                    // A broadcast constant is rotation-invariant.
                    Value::Const(c) => {
                        lo.stats.folded += 1;
                        Value::Const(c)
                    }
                    Value::Ct(s) => {
                        let slots = params.slots() as isize;
                        if r.rem_euclid(slots) == 0 {
                            lo.stats.folded += 1;
                            Value::Ct(s)
                        } else {
                            if let Some(steps) = &opts.rotation_steps {
                                let known = steps
                                    .iter()
                                    .any(|&k| k.rem_euclid(slots) == r.rem_euclid(slots));
                                if !known {
                                    return Err(GraphError::UnknownRotation { node: i, step: r });
                                }
                            }
                            let (level, scale) = (lo.steps[s].level, lo.steps[s].scale);
                            Value::Ct(lo.emit(Step::HRotate(s, r), level, scale))
                        }
                    }
                },
                NodeOp::Rescale(a) => match val(a) {
                    // Symbolic constants carry no scale; rescale is identity.
                    Value::Const(c) => {
                        lo.stats.folded += 1;
                        Value::Const(c)
                    }
                    Value::Ct(s) => Value::Ct(lo.rescale(s, i)?),
                },
                NodeOp::Relin(a) => match val(a) {
                    // Ciphertexts stay degree-2 throughout (relin is fused
                    // into HMULT), so a standalone relin is the identity.
                    v @ Value::Const(_) => v,
                    v @ Value::Ct(_) => v,
                },
                NodeOp::LevelDrop(a, to) => match val(a) {
                    v @ Value::Const(_) => v,
                    Value::Ct(s) => {
                        let from = lo.steps[s].level;
                        if to > from {
                            return Err(GraphError::InvalidLevelDrop { node: i, from, to });
                        }
                        if to == from {
                            Value::Ct(s)
                        } else {
                            let scale = lo.steps[s].scale;
                            Value::Ct(lo.emit(Step::LevelDrop(s, to), to, scale))
                        }
                    }
                },
            };
            values[i] = Some(v);
        }

        let mut outputs = Vec::with_capacity(self.outputs().len());
        for o in self.outputs() {
            match values[o.index()].expect("outputs are live") {
                Value::Ct(s) => outputs.push(s),
                Value::Const(_) => return Err(GraphError::ConstantOutput { node: o.index() }),
            }
        }

        // Wave lowering: a step's wave is 1 + the max wave of its operands;
        // inputs are wave-less (available before execution starts).
        let mut depth = vec![0usize; lo.steps.len()];
        let mut waves: Vec<Vec<usize>> = Vec::new();
        for (s, info) in lo.steps.iter().enumerate() {
            if matches!(info.op, Step::Input(_)) {
                depth[s] = 0;
                continue;
            }
            let d = 1 + info.op.deps().iter().map(|&d| depth[d]).max().unwrap_or(0);
            depth[s] = d;
            while waves.len() < d {
                waves.push(Vec::new());
            }
            waves[d - 1].push(s);
        }

        // Value lifetimes: every step but an output is released after the
        // wave of its last reader (a computed step nothing reads, after its
        // own wave).
        let mut releases: Vec<Vec<usize>> = vec![Vec::new(); waves.len()];
        let mut last_read: Vec<Option<usize>> = vec![None; lo.steps.len()];
        for (s, info) in lo.steps.iter().enumerate() {
            for d in info.op.deps() {
                last_read[d] = last_read[d].max(Some(depth[s] - 1));
            }
        }
        for (s, last) in last_read.into_iter().enumerate() {
            if outputs.contains(&s) {
                continue;
            }
            if let Some(w) = last.or(depth[s].checked_sub(1)) {
                releases[w].push(s);
            }
        }

        lo.stats.steps = lo.steps.len();
        lo.stats.waves = waves.len();
        let stats = lo.stats;
        wd_trace::counter("graph.nodes", stats.nodes as u64);
        wd_trace::counter("graph.cse_hits", stats.build_cse_hits + stats.cse_hits);
        wd_trace::counter("graph.waves", stats.waves as u64);
        wd_trace::counter("graph.inserted_rescales", stats.inserted_rescales as u64);
        wd_trace::counter("graph.inserted_relins", stats.inserted_relins as u64);
        wd_trace::counter("graph.pruned", stats.pruned as u64);

        Ok(CompiledProgram {
            steps: lo.steps,
            waves,
            releases,
            outputs,
            input_count: self.input_count(),
            input_level,
            input_scale,
            stats,
        })
    }
}

impl Lowering<'_> {
    /// Lowers a ciphertext–ciphertext binary op: level alignment, then the
    /// scale-compatibility check the real op will enforce.
    fn binary(
        &mut self,
        node: usize,
        sa: usize,
        sb: usize,
        mk: impl Fn(usize, usize) -> Step,
    ) -> Result<usize, GraphError> {
        let target = self.steps[sa].level.min(self.steps[sb].level);
        let (sa, sb) = (self.align_to(sa, target), self.align_to(sb, target));
        let (ls, rs) = (self.steps[sa].scale, self.steps[sb].scale);
        if !relative_eq(ls, rs) {
            return Err(GraphError::ScaleDivergence {
                node,
                lhs: ls,
                rhs: rs,
            });
        }
        Ok(self.emit(mk(sa, sb), target, ls))
    }
}
