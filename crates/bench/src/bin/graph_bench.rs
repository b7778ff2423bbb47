//! Graph-compiler benchmark: what wave scheduling buys over hand-sequenced
//! serial execution of the same program. Generates
//! `results/graph_compile.txt` (regenerate with
//! `cargo run --release -p wd-bench --bin graph_bench > results/graph_compile.txt`;
//! the drift checker maps the artifact to this binary).
//!
//! Three sections:
//!
//! 1. **Compile report** (deterministic): the SET-C demo program — four
//!    packed 8-element inner products summed, then a cubic polynomial
//!    evaluated on the sum (Horner) — through `wd_graph::Graph::compile`
//!    at N = 2^14, L = 14. Node/step/wave counts, build and compile-pass
//!    CSE hits, and every compiler insertion (rescales, relins, level
//!    aligns) come out exact.
//! 2. **Modeled wave-parallel vs serial** (deterministic): each step
//!    priced with the modeled WarpDrive operation latency at its own
//!    level ([`System::op_latency_us`]); serial = hand-sequenced one op
//!    at a time, wave-parallel = LPT-packed onto 4 modeled device lanes
//!    per wave (a wave's steps are mutually independent by construction).
//!    The run *asserts* the ≥ 1.15× speedup gate.
//! 3. **Real-execution drill** (deterministic): the same program compiled
//!    on a degree-2^6 ring and executed through
//!    [`wd_graph::execute_many`]; the hand-sequenced `wd_ckks::ops`
//!    reference, the sequential fault-free run, and parallel runs at
//!    2/4 threads under fault injection must all be **bit-identical**.
//!
//! Trace output (when `WD_TRACE` is on) goes to **stderr**: stdout is the
//! drift-checked artifact.

use warpdrive_core::{BatchExecutor, EvalKeys, FaultPlan, HomOp, OpShape};
use wd_baselines::{System, SystemKind};
use wd_bench::banner;
use wd_ckks::cipher::Ciphertext;
use wd_ckks::encoding::C64;
use wd_ckks::{ops, CkksContext, ParamSet};
use wd_graph::{CompileOptions, CompiledProgram, Graph};

/// Independent packed inner products feeding the polynomial tail (the
/// program's exploitable wave width).
const PAIRS: usize = 4;
/// log2 of the packed vector length each inner product reduces over.
const REDUCE: [isize; 3] = [4, 2, 1];
/// Cubic tail coefficients, Horner order: c3·s³ + c2·s² + c1·s + c0.
const COEFFS: [f64; 4] = [0.5, -1.25, 2.0, 3.0];
/// Modeled device lanes the wave scheduler packs onto.
const LANES: usize = 4;
/// Modeled wave-parallel speedup gate over hand-sequenced serial.
const GATE: f64 = 1.15;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner(
        "graph_bench — program graphs, the level compiler, wave scheduling",
        "graph compiler datapoint (BENCH_graph.json; no paper table)",
    );

    let speedup = compile_and_model()?;
    real_drill()?;

    assert!(
        speedup >= GATE,
        "modeled wave-parallel speedup {speedup:.2}x breaches the {GATE:.2}x gate"
    );
    println!();
    println!(
        "PASS: modeled wave-parallel speedup {speedup:.2}x >= {GATE:.2}x on {LANES} lanes \
         (SET-C inner-product + poly-eval program); real execution bit-identical to the \
         hand-sequenced reference at 1/2/4 threads under fault injection"
    );

    // Observability goes to stderr: stdout is the drift-checked artifact.
    if wd_trace::enabled() {
        eprintln!("{}", wd_trace::snapshot().summary_report());
    }
    Ok(())
}

/// The demo program: `PAIRS` packed inner products (mul + log-reduction by
/// rotations), summed, then the cubic tail by Horner. Every level/rescale
/// decision is the compiler's.
fn build_demo() -> Graph {
    let mut g = Graph::new();
    let mut sums = Vec::new();
    for _ in 0..PAIRS {
        let x = g.input();
        let y = g.input();
        let mut t = g.mul(x, y);
        for &k in &REDUCE {
            let r = g.rotate(t, k);
            t = g.add(t, r);
        }
        sums.push(t);
    }
    let s01 = g.add(sums[0], sums[1]);
    let s23 = g.add(sums[2], sums[3]);
    let s = g.add(s01, s23);
    let mut h = g.mul_const(s, COEFFS[0]);
    h = g.add_const(h, COEFFS[1]);
    h = g.mul(h, s);
    h = g.add_const(h, COEFFS[2]);
    h = g.mul(h, s);
    h = g.add_const(h, COEFFS[3]);
    g.output(h);
    g
}

fn rotation_steps() -> Vec<isize> {
    REDUCE.to_vec()
}

/// Modeled cost of one step kind at its level (SET-C ring), in µs.
fn step_cost_us(sys: &System, kind: &str, level: usize, n: usize) -> f64 {
    let op = match kind {
        "hmult" => HomOp::HMult,
        "hrotate" => HomOp::HRotate,
        "rescale" => HomOp::Rescale,
        "pmult" => HomOp::PMult,
        // hadd / hsub / hneg / add_plain / level_drop are all pointwise
        // add-class traffic.
        _ => HomOp::HAdd,
    };
    sys.op_latency_us(op, OpShape::new(n, level.max(1), 1))
}

/// Sections 1 + 2: compile at SET-C, print the compile report, then price
/// the schedule serial vs wave-parallel. Returns the modeled speedup.
fn compile_and_model() -> Result<f64, Box<dyn std::error::Error>> {
    let (n, l) = (1usize << 14, 14usize);
    let params = ParamSet::set_c().build()?;
    let g = build_demo();
    let prog = g.compile(
        &params,
        &CompileOptions::new().with_rotation_steps(&rotation_steps()),
    )?;
    let st = prog.stats();

    println!();
    println!("-- compile report (SET-C: N = 2^14, L = {l}) --");
    println!(
        "  program: {PAIRS} packed inner products (rotate {REDUCE:?} reduction) + cubic Horner tail"
    );
    println!(
        "  nodes {} -> steps {} in {} waves (max width {}), depth consumed {}/{}",
        st.nodes,
        st.steps,
        st.waves,
        prog.max_wave_width(),
        prog.depth_consumed(),
        l
    );
    println!(
        "  cse hits {} (build {} + compile {}), pruned {}, folded {}",
        st.build_cse_hits + st.cse_hits,
        st.build_cse_hits,
        st.cse_hits,
        st.pruned,
        st.folded
    );
    println!(
        "  inserted: {} rescales, {} relins, {} level aligns — all automatic",
        st.inserted_rescales, st.inserted_relins, st.inserted_aligns
    );

    let sys = System::new(SystemKind::WarpDrive);
    let profile = prog.wave_profile();
    println!();
    println!("-- modeled schedule ({LANES} lanes, WarpDrive op latencies at each step's level) --");
    println!(
        "{:>6} {:>7} {:>14} {:>14}  ops",
        "wave", "width", "serial us", "wave us"
    );
    let mut serial_us = 0.0;
    let mut wave_us = 0.0;
    for (w, steps) in profile.iter().enumerate() {
        let mut costs: Vec<f64> = steps
            .iter()
            .map(|&(kind, level)| step_cost_us(&sys, kind, level, n))
            .collect();
        let serial: f64 = costs.iter().sum();
        // LPT packing: heaviest step first onto the least-loaded lane.
        costs.sort_by(|a, b| b.partial_cmp(a).expect("finite costs"));
        let mut lanes = [0.0f64; LANES];
        for c in costs {
            let lane = lanes
                .iter_mut()
                .min_by(|a, b| a.partial_cmp(b).expect("finite lane loads"))
                .expect("LANES > 0");
            *lane += c;
        }
        let packed = lanes.iter().cloned().fold(0.0, f64::max);
        serial_us += serial;
        wave_us += packed;
        let mut kinds: Vec<&str> = steps.iter().map(|&(k, _)| k).collect();
        kinds.sort_unstable();
        kinds.dedup();
        println!(
            "{w:>6} {:>7} {serial:>14.1} {packed:>14.1}  {}",
            steps.len(),
            kinds.join(",")
        );
    }
    let speedup = serial_us / wave_us;
    println!();
    println!(
        "serial {:.2} ms vs wave-parallel {:.2} ms -> {speedup:.2}x  (gate: >= {GATE:.2}x)",
        serial_us / 1e3,
        wave_us / 1e3
    );
    Ok(speedup)
}

/// The hand-sequenced `wd_ckks::ops` reference for the demo program —
/// exactly the ops the compiler emits, one call at a time.
fn reference(
    ctx: &CkksContext,
    relin: &wd_ckks::keys::KeySwitchKey,
    rot: &wd_ckks::keys::RotationKeys,
    inputs: &[Ciphertext],
) -> Result<Ciphertext, Box<dyn std::error::Error>> {
    let slots = ctx.params().slots();
    let scale = ctx.params().scale();
    let broadcast = |c: f64, level: usize, at_scale: f64| {
        ctx.encode_complex_at(&vec![C64::new(c, 0.0); slots], level, at_scale)
    };
    let mut sums = Vec::new();
    for i in 0..PAIRS {
        let mut t = ops::rescale(
            ctx,
            &ops::hmult(ctx, &inputs[2 * i], &inputs[2 * i + 1], relin)?,
        )?;
        for &k in &REDUCE {
            let r = ops::hrotate(ctx, &t, k, rot)?;
            t = ops::hadd(&t, &r)?;
        }
        sums.push(t);
    }
    let s01 = ops::hadd(&sums[0], &sums[1])?;
    let s23 = ops::hadd(&sums[2], &sums[3])?;
    let s = ops::hadd(&s01, &s23)?;
    let mut h = ops::rescale(
        ctx,
        &ops::pmult(&s, &broadcast(COEFFS[0], s.level, scale)?)?,
    )?;
    h = ops::add_plain(&h, &broadcast(COEFFS[1], h.level, h.scale)?)?;
    h = ops::rescale(
        ctx,
        &ops::hmult(ctx, &h, &ops::level_drop(&s, h.level)?, relin)?,
    )?;
    h = ops::add_plain(&h, &broadcast(COEFFS[2], h.level, h.scale)?)?;
    h = ops::rescale(
        ctx,
        &ops::hmult(ctx, &h, &ops::level_drop(&s, h.level)?, relin)?,
    )?;
    Ok(ops::add_plain(
        &h,
        &broadcast(COEFFS[3], h.level, h.scale)?,
    )?)
}

/// Section 3: the same program on a degree-2^6 ring, executed for real.
fn real_drill() -> Result<(), Box<dyn std::error::Error>> {
    let params = ParamSet::set_c().with_degree(1 << 6).build()?;
    let ctx = CkksContext::with_seed(params, 0x6AB)?;
    let kp = ctx.keygen();
    let rot = ctx.gen_rotation_keys(&kp.secret, &rotation_steps(), false);
    let prog = build_demo().compile(
        ctx.params(),
        &CompileOptions::new().with_rotation_steps(&rotation_steps()),
    )?;

    let mut inputs = Vec::new();
    for i in 0..2 * PAIRS {
        let vals: Vec<f64> = (0..8).map(|j| 0.1 * (i + j) as f64 - 0.4).collect();
        inputs.push(ctx.encrypt_values(&vals, &kp.public)?);
    }
    let expect = reference(&ctx, &kp.relin, &rot, &inputs)?;

    let keys = EvalKeys::with_relin(&kp.relin).and_rotations(&rot);
    println!();
    println!("-- real-execution drill (degree 2^6 ring, same program, same chain shape) --");
    let mut identical = 0usize;
    for (threads, fault) in [(1, false), (2, true), (4, true)] {
        let plan = if fault {
            FaultPlan::new(0x6AB ^ threads as u64, 0.05)
        } else {
            FaultPlan::disabled()
        };
        let ex = BatchExecutor::auto(threads).with_fault_plan(plan);
        let jobs: Vec<(&CompiledProgram, &[Ciphertext])> = vec![(&prog, inputs.as_slice())];
        let got = wd_graph::execute_many(&ctx, keys, &jobs, &ex)
            .pop()
            .expect("one job")?;
        assert_eq!(got.len(), 1, "single declared output");
        assert_eq!(
            got[0], expect,
            "graph execution diverged from the hand-sequenced reference \
             ({threads} threads, faults {fault})"
        );
        identical += 1;
        println!(
            "  {threads} thread(s), fault injection {}: bit-identical to the reference",
            if fault { "0.05" } else { "off" }
        );
    }
    assert_eq!(identical, 3);
    println!(
        "  compiled once, executed {identical}x: {} steps, {} waves, output level {}",
        prog.step_count(),
        prog.wave_count(),
        expect.level
    );
    Ok(())
}
