//! Self-healing guard benchmark: what the integrity layer costs, and the
//! supervision ladder exercised under forced faults with exact counts.
//! Generates `results/guard_overhead.txt` (regenerate with
//! `cargo run --release -p wd-bench --bin guard_bench > results/guard_overhead.txt`;
//! the drift checker maps the artifact to this binary).
//!
//! Four sections, all deterministic (measured host numbers live in the
//! host benchmark, `benchmark/`):
//!
//! 1. **Modeled verify overhead**: the FNV-1a checksum the
//!    key cache recomputes on every lease that reads the keys (an HMULT
//!    batch's, the one modeled here), in host INT32 instructions,
//!    against the host HMULT cost per Table VI set — then a batch sweep at
//!    SET-C. One lease serves the whole batch, so the overhead falls as
//!    1/batch; the run *asserts* < 3% at the saturating serving batch.
//! 2. **Corruption quarantine drill**: an armed checksum
//!    mismatch on a resident hit quarantines the entry, reloads from the
//!    cold copy, and serves the same bytes — exact hit/miss/quarantine
//!    counts, responses bit-identical to the fault-free reference.
//! 3. **Wedge/watchdog drill**: a forced worker wedge is
//!    declared, its batch re-queued and answered exactly once, and the
//!    slot respawned — exactly one restart, no degrade.
//! 4. **Breaker drill**: a doomed op trips a full-window
//!    breaker; the next submit is the typed circuit-open refusal.
//!
//! Trace output (when `WD_TRACE` is on) goes to **stderr**: stdout is the
//! drift-checked artifact.

use std::sync::Arc;
use std::time::Duration;

use warpdrive_core::cost;
use warpdrive_core::{BatchExecutor, EvalKeys, FaultPlan, WdError};
use wd_bench::banner;
use wd_ckks::cipher::Ciphertext;
use wd_ckks::{CkksContext, ParamSet};
use wd_serve::{
    BreakerConfig, Request, ServeConfig, ServeKeys, ServeOp, Server, TenantConfig, TenantRegistry,
};

/// Host instructions per hashed 64-bit word: one XOR and one integer
/// multiply, costed in the same INT32 units as `cost::host_*`.
const INSTR_PER_FNV_WORD: f64 = 2.0 * cost::INT32_PER_BITOP;

const BATCHES: [u64; 6] = [1, 2, 4, 8, 16, 32];
/// The saturating serving batch `serve_bench` gates its amortization at.
const SERVING_BATCH: u64 = 16;
const GATE_PCT: f64 = 3.0;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner(
        "guard_bench — integrity checking and the supervision ladder",
        "self-healing datapoint (BENCH_guard.json; no paper table)",
    );

    let overhead = modeled_verify_overhead();
    quarantine_drill()?;
    wedge_drill()?;
    breaker_drill()?;

    // The claim the integrity layer is built on, asserted every run.
    assert!(
        overhead < GATE_PCT,
        "modeled verify overhead {overhead:.2}% breaches the {GATE_PCT:.2}% gate"
    );
    println!();
    println!(
        "PASS: modeled verify overhead {overhead:.2}% < {GATE_PCT:.2}% at batch {SERVING_BATCH}; \
         quarantine, wedge, and breaker drills exact"
    );

    // Observability goes to stderr: stdout is the drift-checked artifact.
    if wd_trace::enabled() {
        eprintln!("{}", wd_trace::snapshot().summary_report());
    }
    Ok(())
}

/// Relin-key words the cache checksums on a lease, under the same α = 1
/// hybrid-keyswitch shape as `cost::host_keyswitch_instrs`: dnum = L
/// digits × 2 polys × (L+1) limbs × N coefficients, each a 64-bit word.
fn verify_instrs(n: usize, l: usize) -> f64 {
    (l * 2 * (l + 1) * n) as f64 * INSTR_PER_FNV_WORD
}

/// Modeled per-lease verify cost vs host HMULT instructions. Returns the
/// SET-C overhead percentage at the saturating serving batch.
fn modeled_verify_overhead() -> f64 {
    println!();
    println!("-- modeled key-verify overhead (host INT32 instrs, one lease per batch) --");
    println!(
        "{:>7} {:>8} {:>4} {:>14} {:>14} {:>14}",
        "set", "N", "L", "verify Minstr", "HMULT Minstr", "b=1 overhead"
    );
    for set in ParamSet::table_vi() {
        let verify = verify_instrs(set.n, set.level);
        let hmult = cost::host_heavy_op_instrs(set.n, set.level);
        println!(
            "{:>7} {:>8} {:>4} {:>14.1} {:>14.1} {:>13.2}%",
            set.name,
            set.n,
            set.level,
            verify / 1e6,
            hmult / 1e6,
            100.0 * verify / hmult
        );
    }

    // One checksum serves the whole leased batch, so the overhead is the
    // batch-1 row divided by the batch size.
    let (n, l) = (1usize << 14, 14usize); // SET-C
    let verify = verify_instrs(n, l);
    let hmult = cost::host_heavy_op_instrs(n, l);
    println!();
    println!("-- SET-C HMULT serving batch sweep --");
    println!("{:>6} {:>14}", "batch", "overhead");
    let mut at_serving = f64::INFINITY;
    for &b in &BATCHES {
        let pct = 100.0 * verify / (b as f64 * hmult);
        println!("{b:>6} {:>13.2}%", pct);
        if b == SERVING_BATCH {
            at_serving = pct;
        }
    }
    println!(
        "modeled verify overhead at serving batch {SERVING_BATCH}: {at_serving:.2}%  \
         (gate: < {GATE_PCT:.2}%)"
    );
    at_serving
}

/// The sequential fault-free reference the drills compare against.
fn reference(
    ctx: &CkksContext,
    relin: &wd_ckks::keys::KeySwitchKey,
    ops: &[ServeOp],
) -> Vec<Ciphertext> {
    let batch: Vec<_> = ops.iter().map(ServeOp::as_batch_op).collect();
    BatchExecutor::sequential()
        .with_fault_plan(FaultPlan::disabled())
        .execute(ctx, EvalKeys::with_relin(relin), &batch)
        .into_iter()
        .map(|r| r.expect("fault-free reference"))
        .collect()
}

/// One armed corruption on a resident hit: quarantine, cold reload, and
/// the same bytes served. `max_batch = 1` with one worker makes every op
/// one lease, so the hit/miss/quarantine ledger is exact.
fn quarantine_drill() -> Result<(), Box<dyn std::error::Error>> {
    let params = ParamSet::set_a().with_degree(1 << 6).build()?;
    let ctx = Arc::new(CkksContext::with_seed(params, 81)?);
    let kp = ctx.keygen();
    let a = ctx.encrypt_values(&[1.5, -0.5], &kp.public)?;
    let b = ctx.encrypt_values(&[2.0, 1.0], &kp.public)?;
    let ops: Vec<ServeOp> = (0..4)
        .map(|i| {
            if i % 2 == 0 {
                ServeOp::HMult(a.clone(), b.clone())
            } else {
                ServeOp::HAdd(a.clone(), b.clone())
            }
        })
        .collect();
    let expect = reference(&ctx, &kp.relin, &ops);

    let mut reg = TenantRegistry::new(TenantConfig::default());
    reg.register("alice", Arc::clone(&ctx), ServeKeys::with_relin(kp.relin))?;
    let server = Server::start_tenants(
        reg,
        ServeConfig {
            max_batch: 1,
            linger: Duration::ZERO,
            ..ServeConfig::default()
        },
    );
    // Ops 0-1 warm the cache (an HMULT miss, then an HADD hit that reads
    // no key and verifies nothing); the armed mismatch fires on op 2's
    // HMULT hit (quarantine + cold reload = second miss); op 3 is an HADD
    // hit on the reloaded copy.
    for (i, (op, want)) in ops.iter().zip(&expect).enumerate() {
        if i == 2 {
            server.tenants().arm_key_corruption(1);
        }
        let got = server
            .submit_as("alice", Request::new(op.clone()))?
            .wait()
            .result?;
        assert_eq!(
            got, *want,
            "op {i} must match the fault-free reference bit for bit"
        );
    }
    server.drain();
    let cache = server.tenants().cache_stats();
    println!();
    println!("-- corruption quarantine drill (deterministic) --");
    println!(
        "  4 single-op leases, 1 armed mismatch: hits {}, misses {}, quarantined {}",
        cache.hits, cache.misses, cache.quarantined
    );
    println!("  every response bit-identical to the sequential fault-free reference");
    assert_eq!(
        (cache.hits, cache.misses, cache.quarantined),
        (2, 2, 1),
        "exact quarantine ledger: {cache:?}"
    );
    Ok(())
}

/// One forced wedge under a fast watchdog: the parked batch is re-queued,
/// answered exactly once by the replacement, and the restart accounted.
fn wedge_drill() -> Result<(), Box<dyn std::error::Error>> {
    let params = ParamSet::set_a().with_degree(1 << 6).build()?;
    let ctx = Arc::new(CkksContext::with_seed(params, 82)?);
    let kp = ctx.keygen();
    let a = ctx.encrypt_values(&[0.25, 2.0], &kp.public)?;
    let b = ctx.encrypt_values(&[-1.0, 0.5], &kp.public)?;
    let ops: Vec<ServeOp> = (0..8)
        .map(|i| {
            if i % 2 == 0 {
                ServeOp::HMult(a.clone(), b.clone())
            } else {
                ServeOp::HSub(b.clone(), a.clone())
            }
        })
        .collect();
    let expect = reference(&ctx, &kp.relin, &ops);

    let mut reg = TenantRegistry::new(TenantConfig::default());
    reg.register("alice", Arc::clone(&ctx), ServeKeys::with_relin(kp.relin))?;
    let server = Server::start_tenants(
        reg,
        ServeConfig {
            max_batch: 4,
            linger: Duration::from_micros(200),
            workers: 2,
            executor: BatchExecutor::auto(2),
            watchdog: Duration::from_millis(100),
            ..ServeConfig::default()
        },
    );
    server.arm_wedge(1);
    let tickets: Vec<_> = ops
        .iter()
        .map(|op| server.submit_as("alice", Request::new(op.clone())))
        .collect::<Result<_, _>>()?;
    for (i, (t, want)) in tickets.into_iter().zip(&expect).enumerate() {
        let got = t.wait().result?;
        assert_eq!(
            got, *want,
            "op {i} must match the reference even through the wedge re-queue"
        );
    }
    server.drain();
    println!();
    println!("-- wedge/watchdog drill (deterministic) --");
    println!(
        "  1 forced wedge, 100 ms watchdog: worker restarts {}, degraded {}",
        server.worker_restarts(),
        server.degraded()
    );
    println!("  the re-queued batch answered exactly once, bit-identical");
    assert_eq!(server.worker_restarts(), 1, "exactly one restart");
    assert!(!server.degraded(), "one restart is far below the storm cap");
    Ok(())
}

/// A doomed op (HROTATE without rotation keys) fills a 4-window breaker at
/// 100%: the fifth submit is refused with the typed circuit-open error
/// before touching the queue.
fn breaker_drill() -> Result<(), Box<dyn std::error::Error>> {
    let params = ParamSet::set_a().with_degree(1 << 6).build()?;
    let ctx = Arc::new(CkksContext::with_seed(params, 83)?);
    let kp = ctx.keygen();
    let a = ctx.encrypt_values(&[1.0, 1.0], &kp.public)?;
    let doomed = ServeOp::HRotate(a, 1);

    let mut reg = TenantRegistry::new(TenantConfig {
        breaker: Some(BreakerConfig {
            window: 4,
            threshold_pct: 100,
            cooldown: Duration::from_secs(30),
            probes: 1,
        }),
        ..TenantConfig::default()
    });
    reg.register("bob", Arc::clone(&ctx), ServeKeys::with_relin(kp.relin))?;
    let server = Server::start_tenants(
        reg,
        ServeConfig {
            max_batch: 1,
            linger: Duration::ZERO,
            ..ServeConfig::default()
        },
    );
    for i in 0..4 {
        let resp = server
            .submit_as("bob", Request::new(doomed.clone()))?
            .wait();
        let err = resp.result.expect_err("rotation without keys must fail");
        assert!(
            !matches!(err, WdError::TenantCircuitOpen { .. }),
            "failure {i} is a served error, not yet a breaker refusal: {err}"
        );
    }
    let refusal = server
        .submit_as("bob", Request::new(doomed))
        .expect_err("the full window trips the breaker");
    assert!(
        matches!(refusal, WdError::TenantCircuitOpen { .. }),
        "typed circuit-open refusal, got {refusal:?}"
    );
    server.drain();
    let stats = server.tenant_stats("bob").expect("registered");
    println!();
    println!("-- circuit-breaker drill (deterministic) --");
    // The error's retry-after names the live cooldown remainder, which is
    // host-dependent — keep the artifact line static.
    println!(
        "  window 4 at 100%: 4 served failures, then 1 typed TenantCircuitOpen refusal for \"bob\""
    );
    println!(
        "  after drain: completed {}, rejected {}, in flight {}",
        stats.completed, stats.rejected, stats.in_flight
    );
    assert_eq!(
        (
            stats.enqueued,
            stats.completed,
            stats.rejected,
            stats.in_flight
        ),
        (4, 4, 1, 0),
        "exact breaker ledger: {stats:?}"
    );
    Ok(())
}
