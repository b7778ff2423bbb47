//! Serving-layer benchmark: dynamic batching vs one-at-a-time execution,
//! plus deterministic drills of the shedding and admission-control paths.
//! Generates `results/serve_latency.txt` (regenerate with
//! `cargo run --release -p wd-bench --bin serve_bench > results/serve_latency.txt`;
//! the drift checker maps the artifact to this binary).
//!
//! Four sections:
//!
//! 1. **Modeled batch amortization** (deterministic): the PE-kernel HMULT
//!    plan on the analytic A100 model at batch 1…32. This is the number
//!    the serving layer exists to win: per-op latency falls as launches
//!    amortize, and the run *asserts* ≥ 1.5× modeled throughput at the
//!    saturating batch vs batch-1.
//! 2. **Measured serving** (host compute path, `~`-masked): an open-loop
//!    burst through a real `wd-serve::Server` at `max_batch = 1` vs
//!    dynamic batching. Host-dependent, so every number is `~`-prefixed
//!    for the drift mask.
//! 3. **Deadline shedding drill** (deterministic): zero-deadline requests
//!    are always expired on arrival, so the shed path runs with exact,
//!    reproducible counts.
//! 4. **Admission-control drill** (deterministic): overfilling a bounded
//!    queue rejects with `QueueFull`, and drain answers everything else.
//!
//! `--quick` shrinks the measured phase only; the
//! printed structure — and every unmasked number — is identical, so the
//! same checked-in artifact drift-checks both modes.
//!
//! Trace output (when `WD_TRACE` is on) goes to **stderr**: stdout is the
//! drift-checked artifact.

use std::sync::Arc;
use std::time::{Duration, Instant};

use warpdrive_core::{BatchExecutor, HomOp, OpShape, PerfEngine, PlannerKind};
use wd_bench::banner;
use wd_ckks::{CkksContext, ParamSet};
use wd_polyring::NttVariant;
use wd_serve::{Request, ServeConfig, ServeKeys, ServeOp, Server};
use wd_trace::Histogram;

const BATCHES: [u64; 6] = [1, 2, 4, 8, 16, 32];
const SATURATING_BATCH: u64 = 16;
const GATE: f64 = 1.5;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");

    banner(
        "serve_bench — dynamic batching for FHE serving",
        "serving-layer datapoint (BENCH_serve.json; no paper table)",
    );

    let ratio = modeled_amortization();
    measured_serving(quick)?;
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

/// Open-loop burst through a real server: `max_batch = 1` vs dynamic
/// batching on the host compute path. Every number is host-measured and
/// `~`-masked.
fn measured_serving(quick: bool) -> Result<(), Box<dyn std::error::Error>> {
    let requests = if quick { 24 } else { 96 };
    // Big enough that compute dominates queue overhead on the host.
    let params = ParamSet::set_b().with_degree(1 << 10).build()?;
    let ctx = Arc::new(CkksContext::with_seed(params, 2026)?);
    let kp = ctx.keygen();
    let a = ctx.encrypt_values(&[1.0, -2.0, 0.5], &kp.public)?;
    let b = ctx.encrypt_values(&[0.25, 4.0, -1.5], &kp.public)?;

    let run = |max_batch: usize| -> Result<(f64, Histogram), Box<dyn std::error::Error>> {
        let config = ServeConfig {
            queue_capacity: requests,
            max_batch,
            linger: Duration::from_micros(200),
            workers: 1,
            executor: BatchExecutor::auto(4),
            ..ServeConfig::default()
        };
        let server = Server::start(
            Arc::clone(&ctx),
            ServeKeys::with_relin(kp.relin.clone()),
            config,
        );
        let start = Instant::now();
        let tickets: Vec<_> = (0..requests)
            .map(|i| {
                let op = if i % 2 == 0 {
                    ServeOp::HMult(a.clone(), b.clone())
                } else {
                    ServeOp::HAdd(a.clone(), b.clone())
                };
                server.submit(Request::new(op))
            })
            .collect::<Result<_, _>>()?;
        let mut lat = Histogram::new();
        for t in tickets {
            let resp = t.wait();
            resp.result?;
            lat.record(resp.waited_us.max(1));
        }
        let secs = start.elapsed().as_secs_f64();
        server.shutdown();
        Ok((requests as f64 / secs.max(1e-9), lat))
    };

    println!();
    println!("-- measured serving (host compute path, SET-B 2^10 ring, open-loop burst) --");
    let (tput_1, lat_1) = run(1)?;
    let (tput_dyn, lat_dyn) = run(16)?;
    let line = |label: &str, tput: f64, lat: &Histogram| {
        let s = lat.summary();
        println!(
            "  {label:<14} throughput ~{tput:.1} req/s   p50 ~{} us   p95 ~{} us   p99 ~{} us",
            s.p50, s.p95, s.p99
        );
    };
    line("max_batch=1", tput_1, &lat_1);
    line("max_batch=16", tput_dyn, &lat_dyn);
    println!(
        "  measured dynamic-batching speedup: ~{:.2}x (host-dependent; the gate is modeled)",
        tput_dyn / tput_1.max(1e-9)
    );
    Ok(())
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
    let stats = server.shutdown();
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
