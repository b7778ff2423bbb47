//! Network-serving benchmark: the multi-tenant TCP front-end end to end.
//! Generates `results/net_serve.txt` (regenerate with
//! `cargo run --release -p wd-bench --bin net_bench > results/net_serve.txt`;
//! the drift checker maps the artifact to this binary).
//!
//! Four sections, all deterministic (measured host numbers live in the
//! host benchmark, `benchmark/`):
//!
//! 1. **Modeled tenant key working set**: per Table VI set,
//!    the bytes one tenant's relinearization key pins resident — the
//!    quantity the `TenantConfig::key_cache_bytes` LRU budget manages.
//!    Keyswitch keys dominate GPU FHE working sets, so this table is the
//!    capacity planning number for multi-tenant serving.
//! 2. **TCP serving drill**: two tenants, each an interactive and a bulk
//!    client thread, round-tripping real sockets through a live
//!    `NetServer` — exact request, frame and per-tenant counts.
//! 3. **Tenant quota drill**: an in-flight hold exhausts a
//!    quota of 1; the refusal is typed, exact, and accounted per tenant.
//! 4. **Key-cache churn drill**: a 1-byte budget forces an
//!    eviction/reload on every alternating lease — exact hit/miss/eviction
//!    counts, with every response still bit-identical to that tenant's
//!    sequential fault-free reference.
//!
//! Trace output (when `WD_TRACE` is on) goes to **stderr**: stdout is the
//! drift-checked artifact.

use std::sync::Arc;
use std::time::Duration;

use warpdrive_core::BatchExecutor;
use wd_bench::banner;
use wd_ckks::{CkksContext, ParamSet};
use wd_serve::{
    NetClient, NetConfig, NetServer, Request, ServeConfig, ServeKeys, ServeOp, Server,
    TenantConfig, TenantRegistry,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    banner(
        "net_bench — multi-tenant TCP serving",
        "network front-end datapoint (BENCH_net.json; no paper table)",
    );

    modeled_key_working_set();
    tcp_serving_drill()?;
    quota_drill()?;
    cache_churn_drill()?;

    println!();
    println!("PASS: quota and key-cache drills exact; TCP round-trips bit-identical");

    // Observability goes to stderr: stdout is the drift-checked artifact.
    if wd_trace::enabled() {
        eprintln!("{}", wd_trace::snapshot().summary_report());
    }
    Ok(())
}

/// Bytes one tenant's relinearization key pins resident, per Table VI set:
/// `dnum × 2 polys × (L+1+K) limbs × N × 4 bytes` (the 32-bit wire word the
/// paper's Tensor-Core layout splits coefficients into). Deterministic —
/// pure parameter arithmetic, no keygen.
fn modeled_key_working_set() {
    println!();
    println!("-- modeled tenant key working set (relin key, 4-byte wire words) --");
    println!(
        "{:>7} {:>8} {:>4} {:>4} {:>6} {:>14} {:>22}",
        "set", "N", "L", "K", "dnum", "key MiB", "tenants in 512 MiB"
    );
    for set in ParamSet::table_vi() {
        let dnum = (set.level + 1).div_ceil(set.special);
        let limbs = set.level + 1 + set.special;
        let bytes = dnum * 2 * limbs * set.n * 4;
        let mib = bytes as f64 / (1024.0 * 1024.0);
        let resident = (512usize << 20) / bytes;
        println!(
            "{:>7} {:>8} {:>4} {:>4} {:>6} {:>14.2} {:>22}",
            set.name, set.n, set.level, set.special, dnum, mib, resident
        );
    }
    println!("(the key_cache_bytes budget evicts LRU tenants past this working set)");
}

/// Two tenants × (interactive + bulk) client threads over real loopback
/// sockets, 8 requests a connection. Only the accounting is printed: every
/// count is exact, the latency is the host benchmark's.
fn tcp_serving_drill() -> Result<(), Box<dyn std::error::Error>> {
    const PER_CLIENT: usize = 8;
    let mut reg = TenantRegistry::new(TenantConfig::default());
    let mut tenants = Vec::new();
    for (id, seed) in [("alice", 31u64), ("bob", 32u64)] {
        let params = ParamSet::set_a().with_degree(1 << 8).build()?;
        let ctx = Arc::new(CkksContext::with_seed(params, seed)?);
        let kp = ctx.keygen();
        let a = ctx.encrypt_values(&[1.0, -2.0], &kp.public)?;
        let b = ctx.encrypt_values(&[0.5, 3.0], &kp.public)?;
        reg.register(
            id,
            Arc::clone(&ctx),
            ServeKeys::with_relin(kp.relin.clone()),
        )?;
        tenants.push((id, a, b));
    }
    let server = Arc::new(Server::start_tenants(
        reg,
        ServeConfig {
            queue_capacity: 4 * PER_CLIENT,
            max_batch: 8,
            linger: Duration::from_micros(200),
            workers: 2,
            executor: BatchExecutor::auto(2),
            ..ServeConfig::default()
        },
    ));
    let net = NetServer::start(Arc::clone(&server), NetConfig::default())?;
    let addr = net.local_addr();

    let mut handles = Vec::new();
    for (id, a, b) in &tenants {
        for class in [wd_serve::Class::Interactive, wd_serve::Class::Bulk] {
            let (id, a, b) = (*id, a.clone(), b.clone());
            handles.push(std::thread::spawn(move || -> Result<(), String> {
                let mut client = NetClient::connect(addr).map_err(|e| e.to_string())?;
                for i in 0..PER_CLIENT {
                    let op = if i % 2 == 0 {
                        ServeOp::HMult(a.clone(), b.clone())
                    } else {
                        ServeOp::HAdd(a.clone(), b.clone())
                    };
                    let resp = client
                        .call_checked(Some(id), &Request::new(op).with_class(class))
                        .map_err(|e| e.to_string())?;
                    resp.result.map_err(|e| format!("{id}: {e}"))?;
                }
                Ok(())
            }));
        }
    }
    for h in handles {
        h.join().expect("client thread")?;
    }
    let total = 4 * PER_CLIENT as u64;

    println!();
    println!("-- measured TCP serving (loopback, 2 tenants x interactive/bulk clients) --");
    println!("  {total} requests over 4 connections");

    let net_stats = net.shutdown();
    server.drain();
    assert_eq!(net_stats.accepted, 4);
    assert_eq!(net_stats.frames, total);
    assert_eq!(net_stats.decode_errors, 0);
    for (id, _, _) in &tenants {
        let t = server.tenant_stats(id).expect("registered");
        assert_eq!(
            (t.enqueued, t.completed, t.in_flight),
            (2 * PER_CLIENT as u64, 2 * PER_CLIENT as u64, 0),
            "tenant {id} lossless accounting"
        );
    }
    println!(
        "  lossless: 4 connections accepted, {total} frames, 0 decode errors, per-tenant enqueued == completed"
    );
    Ok(())
}

/// Quota of 1, one request held in flight: the second submit is the typed
/// refusal, and drain answers the held request. Exact counts.
fn quota_drill() -> Result<(), Box<dyn std::error::Error>> {
    let params = ParamSet::set_a().with_degree(1 << 6).build()?;
    let ctx = Arc::new(CkksContext::with_seed(params, 41)?);
    let kp = ctx.keygen();
    let ct = ctx.encrypt_values(&[2.0], &kp.public)?;
    let mut reg = TenantRegistry::new(TenantConfig {
        quota: 1,
        ..TenantConfig::default()
    });
    reg.register("alice", Arc::clone(&ctx), ServeKeys::none())?;
    // Nothing can flush before drain (a hold keeps the idle worker from
    // taking it): the admitted request stays in flight.
    let server = Server::start_tenants(
        reg,
        ServeConfig {
            max_batch: 64,
            linger: Duration::from_secs(10),
            ..ServeConfig::default()
        },
    );
    let hold = server.hold();
    let held = server.submit_as("alice", Request::new(ServeOp::Rescale(ct.clone())))?;
    let refused = server
        .submit_as("alice", Request::new(ServeOp::Rescale(ct)))
        .expect_err("quota of 1 must refuse the second in-flight request");
    let msg = refused.to_string();
    assert!(
        matches!(
            refused,
            warpdrive_core::WdError::TenantQuotaExceeded {
                in_flight: 1,
                quota: 1,
                ..
            }
        ),
        "typed refusal, got {refused:?}"
    );
    server.drain();
    drop(hold);
    held.wait().result?;
    let stats = server.tenant_stats("alice").expect("registered");
    println!();
    println!("-- tenant quota drill (deterministic) --");
    println!("  quota 1: admitted {}, refused 1 ({msg})", stats.enqueued);
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
        (1, 1, 1, 0)
    );
    Ok(())
}

/// Alternating leases under a 1-byte budget: every lease is a miss, each
/// evicting the other tenant — and the answers still match the sequential
/// fault-free reference bit for bit. Exact counts.
fn cache_churn_drill() -> Result<(), Box<dyn std::error::Error>> {
    const ROUNDS: usize = 4; // per tenant, alternating
    let mut reg = TenantRegistry::new(TenantConfig {
        key_cache_bytes: 1,
        ..TenantConfig::default()
    });
    let mut tenants = Vec::new();
    for (id, seed) in [("alice", 51u64), ("bob", 52u64)] {
        let params = ParamSet::set_a().with_degree(1 << 6).build()?;
        let ctx = Arc::new(CkksContext::with_seed(params, seed)?);
        let kp = ctx.keygen();
        let a = ctx.encrypt_values(&[1.5, -0.5], &kp.public)?;
        let b = ctx.encrypt_values(&[2.0, 1.0], &kp.public)?;
        let op = ServeOp::HMult(a, b);
        // The reference: sequential, injection disabled.
        let expect = BatchExecutor::sequential()
            .with_fault_plan(warpdrive_core::FaultPlan::disabled())
            .execute(
                &ctx,
                warpdrive_core::EvalKeys::with_relin(&kp.relin),
                &[op.as_batch_op()],
            )
            .remove(0)?;
        reg.register(
            id,
            Arc::clone(&ctx),
            ServeKeys::with_relin(kp.relin.clone()),
        )?;
        tenants.push((id, op, expect));
    }
    let server = Server::start_tenants(
        reg,
        ServeConfig {
            max_batch: 1, // serial: one lease per op, alternation guaranteed
            linger: Duration::ZERO,
            ..ServeConfig::default()
        },
    );
    for _ in 0..ROUNDS {
        for (id, op, expect) in &tenants {
            let resp = server.submit_as(id, Request::new(op.clone()))?.wait();
            let got = resp.result?;
            assert_eq!(&got, expect, "tenant {id} diverged under cache churn");
        }
    }
    let cache = server.tenants().cache_stats();
    server.drain();
    println!();
    println!("-- key-cache churn drill (deterministic, 1-byte budget) --");
    println!(
        "  {} alternating leases: hits {}, misses {}, evictions {}",
        2 * ROUNDS,
        cache.hits,
        cache.misses,
        cache.evictions
    );
    println!("  every response bit-identical to the sequential fault-free reference");
    assert_eq!(cache.hits, 0, "1-byte budget never hits");
    assert_eq!(cache.misses, 2 * ROUNDS as u64);
    // Each lease after the first evicts the previous resident tenant.
    assert_eq!(cache.evictions, 2 * ROUNDS as u64 - 1);
    Ok(())
}
