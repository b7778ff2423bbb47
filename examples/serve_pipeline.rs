//! End-to-end FHE serving: submit a mixed request stream to a
//! [`warpdrive::serve::Server`] and watch dynamic batching, priorities,
//! deadlines, and backpressure at work.
//!
//! ```text
//! WD_TRACE=summary cargo run --release --example serve_pipeline
//! ```
//!
//! The server holds requests briefly (`ServeConfig::linger`, 500 µs here)
//! so independent operations coalesce into one batch — the host-side
//! analogue of filling a PE-kernel launch — then fans the batch over every
//! core via the scheduled [`BatchExecutor`]. Responses are
//! bit-identical to sequential execution; the demo checks one against a
//! direct `ops::` call before printing.
//!
//! Also demonstrated: a zero-deadline request that is shed in-queue
//! (`DeadlineExceeded`) instead of wasting compute, and a full-queue
//! rejection (`QueueFull`) — the serving layer's backpressure signal.

use std::sync::Arc;
use std::time::Duration;

use warpdrive::core::BatchExecutor;
use warpdrive::core::WdError;
use warpdrive::polyring::par::available_threads;
use warpdrive::prelude::*;
use warpdrive::serve::{Class, Request, Response, ServeOp};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = ParamSet::set_b().with_degree(1 << 10).build()?;
    let ctx = Arc::new(CkksContext::with_seed(params, 42)?);
    let kp = ctx.keygen();
    let rot = ctx.gen_rotation_keys(&kp.secret, &[1], false);

    let config = ServeConfig {
        max_batch: 8,
        linger: Duration::from_micros(500),
        executor: BatchExecutor::auto(available_threads()),
        ..ServeConfig::default()
    };
    println!(
        "server: queue={} max_batch={} linger={:?} workers={}",
        config.queue_capacity, config.max_batch, config.linger, config.workers
    );
    let server = Server::start(
        Arc::clone(&ctx),
        ServeKeys::with_relin(kp.relin.clone()).and_rotations(rot),
        config,
    );

    // A burst of mixed traffic: interactive multiplies, bulk rotations and
    // adds, plus one request with an impossible deadline.
    let slots = ctx.params().slots().min(32);
    let vals: Vec<f64> = (0..slots).map(|i| i as f64 * 0.01).collect();
    let a = ctx.encrypt_values(&vals, &kp.public)?;
    let b = ctx.encrypt_values(&vals, &kp.public)?;
    let expect = warpdrive::ckks::ops::hmult(&ctx, &a, &b, &kp.relin)?;

    let mut tickets = Vec::new();
    for i in 0..12 {
        let req = match i % 3 {
            0 => Request::new(ServeOp::HMult(a.clone(), b.clone())),
            1 => Request::bulk(ServeOp::HRotate(a.clone(), 1)),
            _ => Request::new(ServeOp::HAdd(a.clone(), b.clone())).with_class(Class::Bulk),
        };
        tickets.push(server.submit(req)?);
    }
    let doomed =
        server.submit(Request::new(ServeOp::Rescale(a.clone())).with_deadline(Duration::ZERO))?;

    // Collect responses; verify the first HMULT bit-for-bit.
    let first: Response = tickets.remove(0).wait();
    assert_eq!(
        first.result.as_ref().expect("hmult response"),
        &expect,
        "served response must be bit-identical to the direct call"
    );
    println!(
        "request {:>2}: ok   batch={} trigger={} waited={}us (hmult, bit-identical)",
        first.id,
        first.batch_size,
        first.trigger.map_or("shed", |t| t.label()),
        first.waited_us
    );
    for t in tickets {
        let r = t.wait();
        println!(
            "request {:>2}: {}  batch={} trigger={} waited={}us",
            r.id,
            if r.result.is_ok() { "ok " } else { "ERR" },
            r.batch_size,
            r.trigger.map_or("shed", |t| t.label()),
            r.waited_us
        );
    }
    match doomed.wait().result {
        Err(WdError::DeadlineExceeded { waited_us }) => {
            println!(
                "request with zero deadline: shed after {waited_us}us in queue (no compute spent)"
            );
        }
        other => println!("unexpected shed outcome: {other:?}"),
    }

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
