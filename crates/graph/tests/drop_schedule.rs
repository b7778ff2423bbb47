//! Value lifetimes of compiled execution: the drop schedule compile
//! records is exactly the brute-force last-reader schedule, and the edge
//! cases of dropping early — an output that is an input, an output a later
//! step reads, an output declared twice, a job that fails mid-program, two
//! jobs over one input slice — stay bit-identical to the hand-sequenced
//! `wd_ckks::ops` reference.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use warpdrive_core::{BatchExecutor, EvalKeys};
use wd_ckks::cipher::Ciphertext;
use wd_ckks::encoding::C64;
use wd_ckks::keys::{KeyPair, RotationKeys};
use wd_ckks::{ops, CkksContext, CkksError, ParamSet};
use wd_graph::{CompileOptions, CompiledProgram, Graph, NodeId};

fn shared() -> &'static (Arc<CkksContext>, KeyPair, RotationKeys) {
    static CELL: OnceLock<(Arc<CkksContext>, KeyPair, RotationKeys)> = OnceLock::new();
    CELL.get_or_init(|| {
        let params = ParamSet::set_a()
            .with_degree(1 << 6)
            .with_level(6)
            .build()
            .unwrap();
        let ctx = CkksContext::with_seed(params, 0xD409).unwrap();
        let kp = ctx.keygen();
        let rot = ctx.gen_rotation_keys(&kp.secret, &[1, 2], false);
        (Arc::new(ctx), kp, rot)
    })
}

fn eval_keys() -> EvalKeys<'static> {
    let (_, kp, rot) = shared();
    EvalKeys::with_relin(&kp.relin).and_rotations(rot)
}

fn compile(g: &Graph) -> Result<CompiledProgram, wd_graph::GraphError> {
    let (ctx, _, _) = shared();
    g.compile(ctx.params(), &CompileOptions::new())
}

/// The drop schedule by brute force: every step but an output is dropped
/// after the wave of its last reader, found by scanning every step's
/// operands; a computed step nothing reads is dropped after its own wave.
fn last_reader_schedule(prog: &CompiledProgram) -> Vec<Vec<usize>> {
    let waves: Vec<Vec<usize>> = prog.schedule().map(|(w, _)| w.to_vec()).collect();
    let wave_of = |s: usize| waves.iter().position(|w| w.contains(&s));
    let mut drops = vec![Vec::new(); waves.len()];
    for s in 0..prog.step_count() {
        if prog.output_steps().contains(&s) {
            continue;
        }
        let last = (0..prog.step_count())
            .filter(|&t| prog.step_operands(t).contains(&s))
            .map(|t| wave_of(t).expect("a reader is a computed step"))
            .max();
        if let Some(w) = last.or_else(|| wave_of(s)) {
            drops[w].push(s);
        }
    }
    drops
}

fn assert_schedule(prog: &CompiledProgram, what: &str) {
    let got: Vec<Vec<usize>> = prog
        .schedule()
        .map(|(_, d)| {
            let mut d = d.to_vec();
            d.sort_unstable();
            d
        })
        .collect();
    assert_eq!(got, last_reader_schedule(prog), "{what}");
    for (_, d) in prog.schedule() {
        assert!(
            d.iter().all(|s| !prog.output_steps().contains(s)),
            "{what}: an output is dropped"
        );
    }
}

/// `graph_equivalence.rs`'s demo family: `((x·y) ⊕ rot(x·y, r))² + c`.
fn demo(rot: isize, use_sub: bool, c: f64) -> Graph {
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

#[test]
fn demo_family_drops_at_the_last_reader() {
    for rot in [1, 2] {
        for use_sub in [false, true] {
            for c in [-1.5, 0.0, 2.25] {
                let prog = compile(&demo(rot, use_sub, c)).unwrap();
                assert_schedule(&prog, &format!("demo rot {rot} sub {use_sub} c {c}"));
                // Nothing but the output outlives the program.
                let dropped: usize = prog.schedule().map(|(_, d)| d.len()).sum();
                assert_eq!(dropped, prog.step_count() - 1);
            }
        }
    }
}

#[test]
fn equivalence_suite_programs_drop_at_the_last_reader() {
    // The CSE, inserted-alignment, wave-width and pruning programs of
    // `graph_equivalence.rs`.
    let mut programs = Vec::new();

    let mut g = Graph::new();
    let (x, y) = (g.input(), g.input());
    let (p1, p2, p3) = (g.mul(x, y), g.mul(x, y), g.mul(y, x));
    let a = g.add(p1, p2);
    let b = g.add(a, p3);
    g.output(b);
    programs.push(("cse", g));

    let mut g = Graph::new();
    let (x, y) = (g.input(), g.input());
    let t = g.mul(x, y);
    let a = g.add(t, x);
    let b = g.sub(t, x);
    let o = g.add(a, b);
    g.output(o);
    programs.push(("aligns", g));

    let mut g = Graph::new();
    let (x, y) = (g.input(), g.input());
    let (a, b, c) = (g.mul(x, y), g.mul(x, x), g.mul(y, y));
    let s1 = g.add(a, b);
    let s2 = g.add(s1, c);
    g.output(s2);
    programs.push(("waves", g));

    let mut g = Graph::new();
    let (x, y) = (g.input(), g.input());
    let dead = g.mul(x, y);
    let _ = g.rotate(dead, 1);
    let (k1, k2) = (g.constant(2.0), g.constant(3.0));
    let k = g.mul(k1, k2);
    let o = g.mul(x, k);
    g.output(o);
    programs.push(("pruned", g));

    for (what, g) in programs {
        assert_schedule(&compile(&g).unwrap(), what);
    }
}

/// One random program: each entry applies an op to earlier nodes (indices
/// taken modulo the nodes so far); outputs are drawn the same way, and may
/// repeat or name an input.
fn random_graph(ops: &[(u8, usize, usize)], outs: &[usize]) -> Graph {
    let mut g = Graph::new();
    let mut nodes: Vec<NodeId> = (0..3).map(|_| g.input()).collect();
    for &(op, a, b) in ops {
        let (a, b) = (nodes[a % nodes.len()], nodes[b % nodes.len()]);
        let n = match op % 8 {
            0 => g.add(a, b),
            1 => g.sub(a, b),
            2 => g.mul(a, b),
            3 => g.rotate(a, 1 + (b.index() % 2) as isize),
            4 => g.add_const(a, 0.5),
            5 => g.mul_const(a, -0.25),
            6 => {
                let one = g.constant(1.0);
                g.sub(one, a)
            }
            _ => g.rescale(a),
        };
        nodes.push(n);
    }
    for &o in outs {
        g.output(nodes[o % nodes.len()]);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn prop_random_programs_drop_at_the_last_reader(
        ops in proptest::collection::vec((0u8..8, 0usize..64, 0usize..64), 1..40),
        outs in proptest::collection::vec(0usize..64, 1..4),
    ) {
        // Programs too deep for the chain or adding mismatched scales are
        // rejected at compile time; they have no schedule to check.
        if let Ok(prog) = compile(&random_graph(&ops, &outs)) {
            assert_schedule(&prog, &format!("{ops:?} -> {outs:?}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Edge cases against direct execution
// ---------------------------------------------------------------------------

fn encrypt(vals: &[f64]) -> Ciphertext {
    let (ctx, kp, _) = shared();
    ctx.encrypt_values(vals, &kp.public).unwrap()
}

fn product(x: &Ciphertext, y: &Ciphertext) -> Ciphertext {
    let (ctx, kp, _) = shared();
    ops::rescale(ctx, &ops::hmult(ctx, x, y, &kp.relin).unwrap()).unwrap()
}

/// Outputs that are an input, that a later step reads, and that are
/// declared twice all come back intact, each an owned value.
#[test]
fn kept_outputs_match_direct_execution() {
    let (ctx, _, rkeys) = shared();
    let mut g = Graph::new();
    let x = g.input();
    let y = g.input();
    let t = g.mul(x, y);
    let r = g.rotate(t, 1);
    let s = g.add(t, r);
    g.output(x); // an input step
    g.output(t); // read again by `r` and `s`
    g.output(s);
    g.output(t); // declared twice
    let prog = compile(&g).unwrap();
    assert_schedule(&prog, "kept outputs");

    let (cx, cy) = (encrypt(&[1.5, -0.5]), encrypt(&[0.25, 2.0]));
    let t_ref = product(&cx, &cy);
    let r_ref = ops::hrotate(ctx, &t_ref, 1, rkeys).unwrap();
    let s_ref = ops::hadd(&t_ref, &r_ref).unwrap();
    let want = vec![cx.clone(), t_ref.clone(), s_ref, t_ref];

    let inputs = [cx, cy];
    let got = prog
        .execute(ctx, eval_keys(), &inputs, &BatchExecutor::sequential())
        .unwrap();
    assert_eq!(got, want);
}

/// A job that fails mid-program reports its error, and the job merged into
/// the same waves beside it still matches direct execution; both jobs read
/// one shared input slice.
#[test]
fn failing_job_beside_a_good_one_over_a_shared_input_slice() {
    let (ctx, _, rkeys) = shared();
    // Rotation by 3 has no key: the job fails in its second wave, after
    // its product is computed and while that product is still live.
    let failing = {
        let mut g = Graph::new();
        let x = g.input();
        let y = g.input();
        let t = g.mul(x, y);
        let r = g.rotate(t, 3);
        let s = g.add(t, r);
        let o = g.mul(s, x);
        g.output(o);
        compile(&g).unwrap()
    };
    let good = compile(&demo(2, true, 0.75)).unwrap();

    let inputs = [encrypt(&[0.5, 1.25, -1.0]), encrypt(&[2.0, -0.75, 0.5])];
    let want = {
        let (x, y) = (&inputs[0], &inputs[1]);
        let t = product(x, y);
        let r = ops::hrotate(ctx, &t, 2, rkeys).unwrap();
        let s = ops::hsub(&t, &r).unwrap();
        let sq = product(&s, &s);
        let pt = ctx
            .encode_complex_at(
                &vec![C64::new(0.75, 0.0); ctx.params().slots()],
                sq.level,
                sq.scale,
            )
            .unwrap();
        ops::add_plain(&sq, &pt).unwrap()
    };

    for executor in [BatchExecutor::sequential(), BatchExecutor::new(2)] {
        let jobs: Vec<(&CompiledProgram, &[Ciphertext])> =
            vec![(&failing, &inputs), (&good, &inputs), (&good, &inputs)];
        let got = wd_graph::execute_many(ctx, eval_keys(), &jobs, &executor);
        assert!(
            matches!(got[0], Err(CkksError::MissingKey(_))),
            "{:?}",
            got[0]
        );
        for res in &got[1..] {
            assert_eq!(res.as_ref().unwrap(), &vec![want.clone()]);
        }
    }
}
