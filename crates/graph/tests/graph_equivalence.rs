//! The graph contract: compiled execution is **bit-identical** to the
//! hand-sequenced `wd_ckks::ops` reference at every program batch size
//! (1–16), thread count (1/2/4) and fault seed (acceptance drill rate
//! 0.05); shared subtrees are evaluated once (CSE) without changing a
//! bit; and programs that cannot fit the modulus chain are rejected at
//! compile time with the right typed [`GraphError`].

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use warpdrive_core::{BatchExecutor, EvalKeys, FaultPlan};
use wd_ckks::cipher::Ciphertext;
use wd_ckks::encoding::C64;
use wd_ckks::keys::{KeyPair, RotationKeys};
use wd_ckks::{ops, CkksContext, CkksError, ParamSet};
use wd_graph::{CompileOptions, CompiledProgram, Graph, GraphError};

fn shared() -> &'static (Arc<CkksContext>, KeyPair, RotationKeys) {
    static CELL: OnceLock<(Arc<CkksContext>, KeyPair, RotationKeys)> = OnceLock::new();
    CELL.get_or_init(|| {
        let params = ParamSet::set_a().with_degree(1 << 6).build().unwrap();
        let ctx = CkksContext::with_seed(params, 0x96A9).unwrap();
        let kp = ctx.keygen();
        let rot = ctx.gen_rotation_keys(&kp.secret, &[1, 2], false);
        (Arc::new(ctx), kp, rot)
    })
}

fn eval_keys() -> EvalKeys<'static> {
    let (_, kp, rot) = shared();
    EvalKeys::with_relin(&kp.relin).and_rotations(rot)
}

/// The demo program family: `out = ((x·y) ⊕ rot(x·y, r))² + c`, where ⊕
/// is add or sub. Exercises hmult (auto relin+rescale), hrotate, binary
/// ops, squaring through CSE, and a broadcast-constant add.
fn build_graph(rot: isize, use_sub: bool, c: f64) -> Graph {
    let mut g = Graph::new();
    let x = g.input();
    let y = g.input();
    let t = g.mul(x, y);
    let r = g.rotate(t, rot);
    let s = if use_sub { g.sub(t, r) } else { g.add(t, r) };
    let sq = g.mul(s, s);
    let out = g.add_const(sq, c);
    g.output(out);
    g
}

/// The same computation hand-sequenced against raw `wd_ckks::ops` — the
/// bit-identity reference (sequential, injection off).
fn reference(
    rot: isize,
    use_sub: bool,
    c: f64,
    x: &Ciphertext,
    y: &Ciphertext,
) -> Result<Ciphertext, CkksError> {
    let (ctx, kp, rkeys) = shared();
    let t = ops::rescale(ctx, &ops::hmult(ctx, x, y, &kp.relin)?)?;
    let r = ops::hrotate(ctx, &t, rot, rkeys)?;
    let s = if use_sub {
        ops::hsub(&t, &r)?
    } else {
        ops::hadd(&t, &r)?
    };
    let sq = ops::rescale(ctx, &ops::hmult(ctx, &s, &s, &kp.relin)?)?;
    let slots = ctx.params().slots();
    let pt = ctx.encode_complex_at(&vec![C64::new(c, 0.0); slots], sq.level, sq.scale)?;
    ops::add_plain(&sq, &pt)
}

fn compile(g: &Graph) -> CompiledProgram {
    let (ctx, _, _) = shared();
    g.compile(
        ctx.params(),
        &CompileOptions::new().with_rotation_steps(&[1, 2]),
    )
    .expect("demo program compiles")
}

const THREADS: [usize; 3] = [1, 2, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Graph-compiled execution == hand-sequenced reference, bit for bit,
    // across program batch 1–16 × threads 1/2/4 × fault seeds at the
    // acceptance drill rate.
    #[test]
    fn prop_graph_execution_bit_identical(
        xs in proptest::collection::vec(-2.0..2.0f64, 1..=8),
        ys in proptest::collection::vec(-2.0..2.0f64, 1..=8),
        batch in 1usize..=16,
        threads_idx in 0usize..3,
        rot_idx in 0usize..2,
        use_sub in any::<bool>(),
        c in -3.0..3.0f64,
        fault_on in 0u8..2,
        fault_seed in 1u64..1_000,
    ) {
        let (ctx, kp, _) = shared();
        let rot = [1isize, 2][rot_idx];
        let prog = compile(&build_graph(rot, use_sub, c));

        // One input pair per program instance (deterministically varied),
        // and one hand-sequenced expectation each.
        let mut inputs: Vec<(Ciphertext, Ciphertext)> = Vec::new();
        let mut expect: Vec<Ciphertext> = Vec::new();
        for j in 0..batch {
            let shift = j as f64 * 0.125;
            let xv: Vec<f64> = xs.iter().map(|v| v + shift).collect();
            let yv: Vec<f64> = ys.iter().map(|v| v - shift).collect();
            let cx = ctx.encrypt_values(&xv, &kp.public).unwrap();
            let cy = ctx.encrypt_values(&yv, &kp.public).unwrap();
            expect.push(reference(rot, use_sub, c, &cx, &cy).unwrap());
            inputs.push((cx, cy));
        }

        let plan = if fault_on == 1 {
            FaultPlan::new(fault_seed, 0.05)
        } else {
            FaultPlan::disabled()
        };
        let ex = BatchExecutor::auto(THREADS[threads_idx]).with_fault_plan(plan);
        let owned: Vec<Vec<Ciphertext>> = inputs
            .iter()
            .map(|(a, b)| vec![a.clone(), b.clone()])
            .collect();
        let jobs: Vec<(&CompiledProgram, &[Ciphertext])> =
            owned.iter().map(|i| (&prog, i.as_slice())).collect();
        let got = wd_graph::execute_many(ctx, eval_keys(), &jobs, &ex);
        prop_assert_eq!(got.len(), batch);
        for (j, res) in got.into_iter().enumerate() {
            let outs = res.unwrap();
            prop_assert_eq!(outs.len(), 1);
            prop_assert_eq!(
                &outs[0], &expect[j],
                "program {} diverged (batch {}, {} threads, fault {})",
                j, batch, THREADS[threads_idx], fault_on
            );
        }
    }
}

// ---------------------------------------------------------------------------
// CSE correctness
// ---------------------------------------------------------------------------

/// A shared subtree built twice evaluates once — and produces the same
/// bits as the redundancy-free hand sequence.
#[test]
fn cse_shared_subtree_evaluated_once_same_result() {
    let (ctx, kp, _) = shared();
    let mut g = Graph::new();
    let x = g.input();
    let y = g.input();
    // The same product, built three ways.
    let p1 = g.mul(x, y);
    let p2 = g.mul(x, y);
    let p3 = g.mul(y, x);
    let a = g.add(p1, p2);
    let b = g.add(a, p3);
    g.output(b);
    assert_eq!(g.cse_hits(), 2, "duplicate insertions share a handle");

    let prog = compile(&g);
    // One MulRelin + one Rescale + the adds and inputs — the duplicated
    // product compiled exactly once.
    assert_eq!(prog.stats().inserted_relins, 1);
    assert_eq!(prog.stats().inserted_rescales, 1);
    // add(p, p) and add(a, p) remain: 2 inputs + mul + rescale + 2 adds.
    assert_eq!(prog.step_count(), 6);

    let cx = ctx.encrypt_values(&[1.25, -0.5, 2.0], &kp.public).unwrap();
    let cy = ctx.encrypt_values(&[0.75, 1.5, -1.0], &kp.public).unwrap();
    let t = ops::rescale(ctx, &ops::hmult(ctx, &cx, &cy, &kp.relin).unwrap()).unwrap();
    let want = ops::hadd(&ops::hadd(&t, &t).unwrap(), &t).unwrap();

    let ex = BatchExecutor::sequential().with_fault_plan(FaultPlan::disabled());
    let got = prog.execute(ctx, eval_keys(), &[cx, cy], &ex).unwrap();
    assert_eq!(got[0], want, "CSE must not change a single bit");
}

/// Compile-pass CSE also coalesces duplicates that only appear after
/// legalization (two identical compiler-inserted alignment drops).
#[test]
fn compile_pass_cse_coalesces_inserted_steps() {
    let mut g = Graph::new();
    let x = g.input();
    let y = g.input();
    let t = g.mul(x, y); // one level below the inputs
    let a = g.add(t, x); // x needs a LevelDrop
    let b = g.sub(t, x); // …the same LevelDrop
    let o = g.add(a, b);
    g.output(o);
    let prog = compile(&g);
    assert_eq!(prog.stats().inserted_aligns, 2, "both sites ask for a drop");
    assert!(prog.stats().cse_hits >= 1, "the second drop is a CSE hit");
}

// ---------------------------------------------------------------------------
// Typed compile-time rejection
// ---------------------------------------------------------------------------

#[test]
fn depth_exhaustion_rejected_at_compile_time() {
    // A 2-level chain cannot absorb three chained multiplications.
    let params = ParamSet::set_a()
        .with_degree(1 << 6)
        .with_level(2)
        .build()
        .unwrap();
    let mut g = Graph::new();
    let x = g.input();
    let mut acc = x;
    for _ in 0..3 {
        acc = g.mul(acc, acc);
    }
    g.output(acc);
    match g.compile(&params, &CompileOptions::new()) {
        Err(GraphError::DepthExhausted { available, .. }) => assert_eq!(available, 2),
        other => panic!("expected DepthExhausted, got {other:?}"),
    }
    // The same program fits a deeper chain.
    let deep = ParamSet::set_a()
        .with_degree(1 << 6)
        .with_level(6)
        .build()
        .unwrap();
    let prog = g.compile(&deep, &CompileOptions::new()).unwrap();
    assert_eq!(prog.depth_consumed(), 3);
}

#[test]
fn unknown_rotation_rejected_at_compile_time() {
    let (ctx, _, _) = shared();
    let mut g = Graph::new();
    let x = g.input();
    let r = g.rotate(x, 3);
    g.output(r);
    match g.compile(
        ctx.params(),
        &CompileOptions::new().with_rotation_steps(&[1, 2]),
    ) {
        Err(GraphError::UnknownRotation { step, .. }) => assert_eq!(step, 3),
        other => panic!("expected UnknownRotation, got {other:?}"),
    }
    // Without a declared key set the check is deferred to execution.
    assert!(g.compile(ctx.params(), &CompileOptions::new()).is_ok());
}

#[test]
fn scale_divergence_rejected_at_compile_time() {
    let (ctx, _, _) = shared();
    let mut g = Graph::new();
    let x = g.input();
    let y = g.input();
    let dropped = g.rescale(y); // scale Δ/q — nowhere near x's Δ
    let o = g.add(x, dropped);
    g.output(o);
    match g.compile(ctx.params(), &CompileOptions::new()) {
        Err(GraphError::ScaleDivergence { lhs, rhs, .. }) => {
            assert!((lhs / rhs - 1.0).abs() > 0.005, "{lhs} vs {rhs}");
        }
        other => panic!("expected ScaleDivergence, got {other:?}"),
    }
}

#[test]
fn degenerate_graphs_rejected() {
    let (ctx, _, _) = shared();
    let g = Graph::new();
    assert!(matches!(
        g.compile(ctx.params(), &CompileOptions::new()),
        Err(GraphError::NoOutputs)
    ));

    let mut g = Graph::new();
    let a = g.constant(2.0);
    let b = g.constant(3.0);
    let s = g.add(a, b);
    g.output(s);
    match g.compile(ctx.params(), &CompileOptions::new()) {
        Err(GraphError::ConstantOutput { .. }) => {}
        other => panic!("expected ConstantOutput, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Compile hygiene: folding, pruning, execution-time input validation
// ---------------------------------------------------------------------------

#[test]
fn dead_nodes_pruned_and_constants_folded() {
    let mut g = Graph::new();
    let x = g.input();
    let y = g.input();
    let dead = g.mul(x, y); // never reaches an output
    let _dead2 = g.rotate(dead, 1);
    let k1 = g.constant(2.0);
    let k2 = g.constant(3.0);
    let k = g.mul(k1, k2); // folds to 6.0
    let o = g.mul(x, k); // single PMULT by 6.0
    g.output(o);
    let prog = compile(&g);
    assert!(prog.stats().pruned >= 2, "dead mul+rotate pruned");
    assert!(prog.stats().folded >= 1, "const·const folded");
    assert_eq!(prog.stats().inserted_relins, 0, "no ct×ct mult remains");
    assert_eq!(
        prog.stats().inserted_rescales,
        1,
        "one PMULT maintenance rescale"
    );
}

#[test]
fn input_mismatches_are_typed_before_compute() {
    let (ctx, kp, _) = shared();
    let prog = compile(&build_graph(1, false, 0.5));
    let ex = BatchExecutor::sequential();
    let ct = ctx.encrypt_values(&[1.0], &kp.public).unwrap();

    // Arity.
    match prog.execute(ctx, eval_keys(), std::slice::from_ref(&ct), &ex) {
        Err(CkksError::DimensionMismatch { got, want }) => {
            assert_eq!((got, want), (1, 2));
        }
        other => panic!("expected DimensionMismatch, got {other:?}"),
    }

    // Level: an input arriving one level low surfaces as the structured
    // mismatch, naming the graph input site.
    let low = ops::level_drop(&ct, ct.level - 1).unwrap();
    match prog.execute(ctx, eval_keys(), &[low, ct.clone()], &ex) {
        Err(CkksError::LevelMismatch(m)) => {
            assert_eq!(m.op, "graph.input");
            assert_eq!(m.lhs_level, Some(prog.input_level()));
        }
        other => panic!("expected LevelMismatch, got {other:?}"),
    }
}

/// Wave structure: the demo program's schedule has the expected critical
/// path, and independent nodes share a wave.
#[test]
fn wave_schedule_groups_independent_steps() {
    let mut g = Graph::new();
    let x = g.input();
    let y = g.input();
    let a = g.mul(x, y);
    let b = g.mul(x, x);
    let c = g.mul(y, y);
    let s1 = g.add(a, b);
    let s2 = g.add(s1, c);
    g.output(s2);
    let prog = compile(&g);
    // Wave 1: three MulRelin (independent). Wave 2: three rescales.
    assert_eq!(prog.max_wave_width(), 3);
    // mul, rescale, add, add — plus nothing else on the critical path.
    assert_eq!(prog.wave_count(), 4);
}
