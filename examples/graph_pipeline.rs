//! The program compiler end to end: describe an FHE computation as a
//! [`warpdrive::graph::Graph`], let the compiler manage levels, then run
//! the wave schedule — standalone and through a serving
//! [`warpdrive::serve::Server`].
//!
//! ```text
//! WD_TRACE=summary cargo run --release --example graph_pipeline
//! ```
//!
//! The demo program is a packed inner product halved at the end:
//! `0.5 · Σ_slots (x ⊙ y)`, written with **no** rescale, relinearize, or
//! level bookkeeping — the compiler inserts all of it, validates the
//! depth against the `ParamSet` before any ciphertext is touched, and
//! lowers the DAG to topological waves of independent ops that the
//! [`BatchExecutor`] fans out together. The compiled result is checked
//! bit-for-bit against the same ops hand-sequenced against raw
//! `wd_ckks::ops`, then submitted to a live server with
//! [`Request::program`], where it batches alongside a plain request.
//!
//! Also demonstrated: the typed compile-time refusals — an undeclared
//! rotation step and a modulus chain too shallow for the program — both
//! rejected before any compute is spent.

use std::sync::Arc;
use std::time::Duration;

use warpdrive::ckks::encoding::C64;
use warpdrive::ckks::ops;
use warpdrive::core::{BatchExecutor, EvalKeys};
use warpdrive::polyring::par::available_threads;
use warpdrive::prelude::*;
use warpdrive::serve::{Request, ServeOp};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One level more than the program needs, so the depth-2 result lands at
    // level 1 with modulus headroom for a value of this magnitude.
    let params = ParamSet::set_a()
        .with_degree(1 << 6)
        .with_level(3)
        .build()?;
    let ctx = Arc::new(CkksContext::with_seed(params, 7)?);
    let kp = ctx.keygen();
    let rot = ctx.gen_rotation_keys(&kp.secret, &[1, 2], false);

    // 1. Build: a value-numbered DAG, no level/scale bookkeeping anywhere.
    let mut g = Graph::new();
    let x = g.input();
    let y = g.input();
    let xy = g.mul(x, y); // compiler inserts relin + rescale
    let r2 = g.rotate(xy, 2);
    let p = g.add(xy, r2);
    let r1 = g.rotate(p, 1);
    let s = g.add(p, r1); // all 4 slots reduced into every slot
    let half = g.mul_const(s, 0.5); // pmult by a broadcast constant
    g.output(half);

    // 2. Compile: level/scale inference, depth validation, CSE, pruning,
    //    wave scheduling — everything wrong surfaces typed, before compute.
    let opts = CompileOptions::new().with_rotation_steps(&[1, 2]);
    let prog = g.compile(ctx.params(), &opts)?;
    let st = prog.stats();
    println!(
        "compiled: {} nodes -> {} steps in {} waves (max width {}), depth {}/{}",
        st.nodes,
        prog.step_count(),
        prog.wave_count(),
        prog.max_wave_width(),
        prog.depth_consumed(),
        ctx.params().max_level()
    );
    println!(
        "inserted automatically: {} rescales, {} relins, {} level aligns",
        st.inserted_rescales, st.inserted_relins, st.inserted_aligns
    );

    // Typed refusals: a declared rotation-key set must cover every rotate,
    // and the program must fit the modulus chain. Both fail at compile
    // time, not mid-execution.
    match g.compile(
        ctx.params(),
        &CompileOptions::new().with_rotation_steps(&[1]),
    ) {
        Err(GraphError::UnknownRotation { node, step }) => {
            println!("refused (undeclared rotation): node {node} rotates by {step} with no key");
        }
        other => panic!("expected UnknownRotation, got {other:?}"),
    }
    let shallow = ParamSet::set_a()
        .with_degree(1 << 6)
        .with_level(1)
        .build()?;
    match g.compile(&shallow, &opts) {
        Err(GraphError::DepthExhausted { node, available }) => {
            println!("refused (too shallow): node {node} exceeds the {available}-level chain");
        }
        other => panic!("expected DepthExhausted, got {other:?}"),
    }

    // 3. Execute the wave schedule and check it bit-for-bit against the
    //    hand-sequenced reference.
    let vals_x = [1.0, 2.0, 3.0, 4.0];
    let vals_y = [0.5, 0.25, 0.125, 2.0];
    let cx = ctx.encrypt_values(&vals_x, &kp.public)?;
    let cy = ctx.encrypt_values(&vals_y, &kp.public)?;

    let executor = BatchExecutor::auto(available_threads());
    let keys = EvalKeys::with_relin(&kp.relin).and_rotations(&rot);
    let out = prog
        .execute(&ctx, keys, &[cx.clone(), cy.clone()], &executor)?
        .pop()
        .expect("one declared output");

    // The same computation, sequenced by hand against raw ops — exactly
    // what every workload did before the compiler existed.
    let t = ops::rescale(&ctx, &ops::hmult(&ctx, &cx, &cy, &kp.relin)?)?;
    let a = ops::hadd(&t, &ops::hrotate(&ctx, &t, 2, &rot)?)?;
    let b = ops::hadd(&a, &ops::hrotate(&ctx, &a, 1, &rot)?)?;
    let slots = ctx.params().slots();
    let pt = ctx.encode_complex_at(
        &vec![C64::new(0.5, 0.0); slots],
        b.level,
        ctx.params().scale(),
    )?;
    let reference = ops::rescale(&ctx, &ops::pmult(&b, &pt)?)?;
    assert_eq!(
        out, reference,
        "compiled run must match the reference bit-for-bit"
    );

    let want: f64 = 0.5 * vals_x.iter().zip(&vals_y).map(|(a, b)| a * b).sum::<f64>();
    let got = ctx.decrypt_values(&out, &kp.secret)?[0];
    println!("inner product: got {got:.4}, expected {want:.4} (bit-identical to reference)");

    // 4. Serve it: compiled programs are first-class requests. The server
    //    door-validates inputs against the compiled expectations, then
    //    wave-merges programs with whatever plain ops share the batch.
    let config = ServeConfig {
        max_batch: 4,
        linger: Duration::from_micros(500),
        executor: BatchExecutor::auto(available_threads()),
        ..ServeConfig::default()
    };
    let server = Server::start(
        Arc::clone(&ctx),
        ServeKeys::with_relin(kp.relin.clone()).and_rotations(rot),
        config,
    );
    let prog = Arc::new(prog);
    let t_prog = server.submit(Request::program(
        Arc::clone(&prog),
        vec![cx.clone(), cy.clone()],
    ))?;
    let t_plain = server.submit(Request::new(ServeOp::HAdd(cx.clone(), cy.clone())))?;

    let served = t_prog.wait();
    assert_eq!(
        served.result.as_ref().expect("program response"),
        &reference,
        "served program must stay bit-identical"
    );
    println!(
        "served program: ok  batch={} waited={}us (bit-identical)",
        served.batch_size, served.waited_us
    );
    let plain = t_plain.wait();
    assert_eq!(
        plain.result.as_ref().expect("hadd response"),
        &ops::hadd(&cx, &cy)?,
        "plain op sharing the batch must be unaffected"
    );

    let stats = server.shutdown();
    println!(
        "stats: submitted={} completed={} shed={} rejected={} batches={}",
        stats.submitted, stats.completed, stats.shed, stats.rejected, stats.batches
    );
    assert_eq!(stats.submitted, stats.completed + stats.shed);

    // Trace exports, when enabled.
    if warpdrive::trace::enabled() {
        let data = warpdrive::trace::snapshot();
        println!("\n{}", data.summary_report());
        if let Some(path) = warpdrive::trace::write_chrome_trace_to_env_path(&data)? {
            println!("chrome trace written to {path}");
        }
    }
    Ok(())
}
