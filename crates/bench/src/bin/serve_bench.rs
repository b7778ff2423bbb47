//! Serving-layer benchmark: dynamic batching vs one-at-a-time execution,
//! plus deterministic drills of the shedding and admission-control paths.
//! Generates `results/serve_latency.txt` (regenerate with
//! `cargo run --release -p wd-bench --bin serve_bench > results/serve_latency.txt`;
//! the drift checker maps the artifact to this binary).
//!
//! Three sections, all deterministic (measured host numbers live in the
//! host benchmark, `benchmark/`):
//!
//! 1. **Modeled batch amortization**: the PE-kernel HMULT
//!    plan on the analytic A100 model at batch 1…32. This is the number
//!    the serving layer exists to win: per-op latency falls as launches
//!    amortize, and the run *asserts* ≥ 1.5× modeled throughput at the
//!    saturating batch vs batch-1.
//! 2. **Deadline shedding drill**: zero-deadline requests
//!    are always expired on arrival, so the shed path runs with exact,
//!    reproducible counts.
//! 3. **Admission-control drill**: overfilling a bounded
//!    queue rejects with `QueueFull`, and drain answers everything else.
//!
//! Trace output (when `WD_TRACE` is on) goes to **stderr**: stdout is the
//! drift-checked artifact.

use std::sync::Arc;
use std::time::Duration;

use warpdrive_core::{HomOp, OpShape, PerfEngine, PlannerKind};
use wd_bench::banner;
use wd_ckks::{CkksContext, ParamSet};
use wd_polyring::NttVariant;
use wd_serve::{Request, ServeConfig, ServeKeys, ServeOp, Server};

const BATCHES: [u64; 6] = [1, 2, 4, 8, 16, 32];
const SATURATING_BATCH: u64 = 16;
const GATE: f64 = 1.5;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner(
        "serve_bench — dynamic batching for FHE serving",
        "serving-layer datapoint (BENCH_serve.json; no paper table)",
    );

    let ratio = modeled_amortization();
    shedding_drill()?;
    admission_drill()?;

    // The claim the serving layer is built on, asserted every run.
    assert!(
        ratio >= GATE,
        "modeled amortization {ratio:.2}x below the {GATE:.2}x gate"
    );
    println!();
    println!("PASS: modeled amortization >= {GATE:.2}x at batch {SATURATING_BATCH}");

    // Observability goes to stderr: stdout is the drift-checked artifact.
    if wd_trace::enabled() {
        eprintln!("{}", wd_trace::snapshot().summary_report());
    }
    Ok(())
}

/// Modeled per-op HMULT latency vs batch size (SET-C, PE kernels, WD-fuse
/// NTT). Returns the throughput ratio at the saturating batch.
fn modeled_amortization() -> f64 {
    let eng = PerfEngine::a100();
    let (n, l, k) = (1usize << 14, 14usize, 1usize); // SET-C
    let per_op = |batch: u64| -> f64 {
        let mut shape = OpShape::new(n, l, k);
        shape.batch = batch;
        eng.op_latency_us(
            HomOp::HMult,
            shape,
            PlannerKind::PeKernel,
            NttVariant::WdFuse,
        )
    };

    println!();
    println!("-- modeled batch amortization (SET-C HMULT, PE kernels, WD-fuse NTT) --");
    println!(
        "{:>6} {:>16} {:>14}",
        "batch", "modeled us/op", "amortization"
    );
    let base = per_op(1);
    let mut at_saturating = 1.0;
    for &b in &BATCHES {
        let us = per_op(b);
        let ratio = base / us;
        println!("{b:>6} {us:>16.2} {:>13.2}x", ratio);
        if b == SATURATING_BATCH {
            at_saturating = ratio;
        }
    }
    println!(
        "modeled speedup at batch {SATURATING_BATCH} vs batch 1: {at_saturating:.2}x  (gate: >= {GATE:.2}x)"
    );
    at_saturating
}

/// Zero-deadline requests are expired on arrival: the shed path runs with
/// exact counts, never reaching the executor.
fn shedding_drill() -> Result<(), Box<dyn std::error::Error>> {
    let params = ParamSet::set_a().with_degree(1 << 6).build()?;
    let ctx = Arc::new(CkksContext::with_seed(params, 7)?);
    let kp = ctx.keygen();
    let ct = ctx.encrypt_values(&[1.0], &kp.public)?;
    let server = Server::start(Arc::clone(&ctx), ServeKeys::none(), ServeConfig::default());
    let tickets: Vec<_> = (0..8)
        .map(|_| {
            server.submit(Request::new(ServeOp::Rescale(ct.clone())).with_deadline(Duration::ZERO))
        })
        .collect::<Result<_, _>>()?;
    let mut shed = 0usize;
    for t in tickets {
        if matches!(
            t.wait().result,
            Err(warpdrive_core::WdError::DeadlineExceeded { .. })
        ) {
            shed += 1;
        }
    }
    let stats = server.shutdown();
    println!();
    println!("-- deadline shedding drill (deterministic) --");
    println!(
        "submitted 8 zero-deadline requests: shed {}, executed {}",
        stats.shed, stats.completed
    );
    assert_eq!(shed, 8, "every zero-deadline request must be shed");
    assert_eq!(stats.shed, 8);
    assert_eq!(stats.completed, 0);
    Ok(())
}

/// Overfill a bounded queue: exact rejection counts, then a lossless
/// single-batch drain.
fn admission_drill() -> Result<(), Box<dyn std::error::Error>> {
    let params = ParamSet::set_a().with_degree(1 << 6).build()?;
    let ctx = Arc::new(CkksContext::with_seed(params, 8)?);
    let kp = ctx.keygen();
    let ct = ctx.encrypt_values(&[2.0], &kp.public)?;
    let config = ServeConfig {
        queue_capacity: 4,
        max_batch: 64,
        linger: Duration::from_secs(10),
        ..ServeConfig::default()
    };
    let server = Server::start(Arc::clone(&ctx), ServeKeys::none(), config);
    // Keep the idle worker from taking anything: the queue fills, then
    // drains as one batch.
    let hold = server.hold();
    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    for _ in 0..6 {
        match server.submit(Request::new(ServeOp::Rescale(ct.clone()))) {
            Ok(t) => accepted.push(t),
            Err(warpdrive_core::WdError::QueueFull { depth, capacity }) => {
                assert_eq!((depth, capacity), (4, 4));
                rejected += 1;
            }
            Err(e) => return Err(e.into()),
        }
    }
    let stats = server.drain();
    drop(hold);
    let mut drain_batches = std::collections::BTreeSet::new();
    for t in accepted {
        let resp = t.wait();
        resp.result?;
        assert_eq!(resp.trigger, Some(wd_serve::FlushTrigger::Drain));
        drain_batches.insert(resp.batch_size);
    }
    println!();
    println!("-- admission control drill (deterministic) --");
    println!(
        "queue capacity 4: accepted {}, rejected {} (QueueFull), drained {} in one batch of {}",
        stats.submitted,
        rejected,
        stats.completed,
        drain_batches.iter().next().copied().unwrap_or(0)
    );
    assert_eq!(stats.submitted, 4);
    assert_eq!(rejected, 2);
    assert_eq!(stats.completed, 4);
    assert_eq!(drain_batches.iter().copied().collect::<Vec<_>>(), vec![4]);
    Ok(())
}
