//! Batched execution: fan a batch of ciphertext operations over host
//! threads with [`warpdrive::core::BatchExecutor`], the host-side analogue
//! of the paper's PE kernels (one launch = whole ciphertext × all limbs).
//!
//! ```text
//! cargo run --release --example batched_pipeline
//! ```
//!
//! The thread budget is every core ([`warpdrive::core::BatchExecutor::new`]):
//! the executor's [`warpdrive::core::ParScheduler`] divides the budget
//! between op-level fan-out and limb-level parallelism per batch shape,
//! never oversubscribing. Results are bit-identical under every split — the
//! demo verifies that against a sequential run before printing timings.
//!
//! With `WD_TRACE=summary|full` the run also prints the wd-trace summary
//! (scheduler decisions, per-op spans); with `WD_TRACE_OUT=/path.json` it
//! writes a `chrome://tracing`-compatible trace of the whole pipeline.

use std::time::Instant;

use warpdrive::ckks::ops::{hmult_with, rescale_with};
use warpdrive::core::{BatchExecutor, BatchOp, EvalKeys};
use warpdrive::polyring::par::available_threads;
use warpdrive::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = ParamSet::set_b().with_degree(1 << 11).build()?;
    let ctx = CkksContext::with_seed(params, 42)?;
    let kp = ctx.keygen();
    let rot_keys = ctx.gen_rotation_keys(&kp.secret, &[1, 2], false);

    // A batch of encrypted vectors, as a server handling parallel requests
    // would hold.
    let slots = ctx.params().slots().min(64);
    let cts: Vec<Ciphertext> = (0..8)
        .map(|j| {
            let vals: Vec<f64> = (0..slots).map(|i| (i + j) as f64 * 0.01).collect();
            ctx.encrypt_values(&vals, &kp.public)
        })
        .collect::<Result<_, _>>()?;

    // One whole-ciphertext op per entry: HMULT, HROTATE and HADD mixed.
    let batch: Vec<BatchOp> = cts
        .iter()
        .enumerate()
        .map(|(j, ct)| match j % 3 {
            0 => BatchOp::HMult(ct, &cts[(j + 1) % cts.len()]),
            1 => BatchOp::HRotate(ct, if j % 2 == 0 { 1 } else { 2 }),
            _ => BatchOp::HAdd(ct, &cts[(j + 1) % cts.len()]),
        })
        .collect();
    let eval = EvalKeys::with_relin(&kp.relin).and_rotations(&rot_keys);

    // Sequential reference.
    let t0 = Instant::now();
    let seq = BatchExecutor::sequential().execute(&ctx, eval, &batch);
    let seq_time = t0.elapsed();

    // Scheduled run over every core. The scheduler splits the budget per
    // batch shape — this large batch gets op-level fan-out; the single deep
    // op below gets limb-level threads.
    let executor = BatchExecutor::new(available_threads());
    println!("scheduler: budget {} threads", executor.threads());
    let t0 = Instant::now();
    let par = executor.execute(&ctx, eval, &batch);
    let par_time = t0.elapsed();

    for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
        let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
        assert_eq!(s, p, "op {i} diverged between sequential and parallel");
    }
    println!(
        "batch of {} ops: sequential {:.1} ms, {} threads {:.1} ms (bit-identical)",
        batch.len(),
        seq_time.as_secs_f64() * 1e3,
        executor.threads(),
        par_time.as_secs_f64() * 1e3,
    );

    // Limb-level parallelism inside a single op: the width is an argument
    // of the `_with` ops (the context-only spellings mean one thread).
    let deep = &cts[0];
    let t0 = Instant::now();
    let a = rescale(&ctx, &hmult(&ctx, deep, &cts[1], &kp.relin)?)?;
    let one = t0.elapsed();
    let width = executor.threads();
    let t0 = Instant::now();
    let b = rescale_with(
        &ctx,
        &hmult_with(&ctx, deep, &cts[1], &kp.relin, width)?,
        width,
    )?;
    let many = t0.elapsed();
    assert_eq!(a, b, "limb-parallel HMULT diverged from sequential");
    println!(
        "single HMULT+RESCALE: 1 thread {:.1} ms, {} threads {:.1} ms (bit-identical)",
        one.as_secs_f64() * 1e3,
        executor.threads(),
        many.as_secs_f64() * 1e3,
    );

    let got = ctx.decrypt_values(&a, &kp.secret)?;
    println!("decrypted product slot 0: {:.4}", got[0]);

    // Observability: print what the tracer saw and export the Chrome trace
    // when asked (WD_TRACE levels off/summary/full; WD_TRACE_OUT path).
    if warpdrive::trace::enabled() {
        let data = warpdrive::trace::snapshot();
        println!("\n{}", data.summary_report());
        if let Some(path) = warpdrive::trace::write_chrome_trace_to_env_path(&data)? {
            println!("chrome trace written to {path} (load in chrome://tracing)");
        }
    }
    Ok(())
}
