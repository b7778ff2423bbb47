//! Multi-tenant FHE serving over real sockets: a [`NetServer`] listening on
//! loopback, two tenants with their own contexts and keys, and `NetClient`s
//! round-tripping length-prefixed wire frames through the batching server.
//!
//! ```text
//! WD_TRACE=summary cargo run --release --example net_pipeline
//! ```
//!
//! Demonstrated, in order:
//!
//! 1. **Tenant isolation**: "alice" and "bob" are registered with separate
//!    `CkksContext`s and key material; each client's responses are checked
//!    bit-for-bit against a direct `ops::` call under that tenant's keys.
//! 2. **The resident key cache**: a deliberately tiny
//!    `TenantConfig::key_cache_bytes` budget forces an eviction/reload on
//!    every alternating lease — and the answers do not change.
//! 3. **Typed refusals over the wire**: an unknown tenant and an exhausted
//!    per-tenant quota both come back as error frames naming the cause,
//!    while the connection stays usable.
//! 4. **Lossless shutdown**: socket drain first, queue drain second; every
//!    accepted request was answered (`enqueued == completed` per tenant).
//!
//! [`NetServer`]: warpdrive::serve::NetServer

use std::sync::Arc;
use std::time::Duration;

use warpdrive::core::BatchExecutor;
use warpdrive::polyring::par::available_threads;
use warpdrive::prelude::*;
use warpdrive::serve::{
    NetClient, NetConfig, NetServer, Request, ServeOp, TenantConfig, TenantRegistry,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // -- 1. Two tenants, two key universes ------------------------------
    let mut registry = TenantRegistry::new(TenantConfig {
        // A budget too small for even one tenant's relin key: every lease
        // is a modeled host->device reload, the worst case for coherence.
        key_cache_bytes: 1,
        quota: 4,
        ..TenantConfig::default()
    });
    let mut tenants = Vec::new();
    for (id, seed) in [("alice", 1u64), ("bob", 2u64)] {
        let params = ParamSet::set_a().with_degree(1 << 8).build()?;
        let ctx = Arc::new(CkksContext::with_seed(params, seed)?);
        let kp = ctx.keygen();
        let a = ctx.encrypt_values(&[1.0, 2.0, 3.0], &kp.public)?;
        let b = ctx.encrypt_values(&[0.5, -1.0, 2.0], &kp.public)?;
        let expect = warpdrive::ckks::ops::hmult(&ctx, &a, &b, &kp.relin)?;
        registry.register(
            id,
            Arc::clone(&ctx),
            ServeKeys::with_relin(kp.relin.clone()),
        )?;
        tenants.push((id, a, b, expect));
    }

    let server = Arc::new(Server::start_tenants(
        registry,
        ServeConfig {
            max_batch: 4,
            linger: Duration::from_micros(300),
            executor: BatchExecutor::auto(available_threads()),
            ..ServeConfig::default()
        },
    ));
    let net = NetServer::start(Arc::clone(&server), NetConfig::default())?;
    println!("listening on {}", net.local_addr());

    // -- 2. Alternating round trips force key-cache churn ---------------
    for round in 0..3 {
        for (id, a, b, expect) in &tenants {
            let mut client = NetClient::connect(net.local_addr())?;
            let resp = client.call_checked(
                Some(id),
                &Request::new(ServeOp::HMult(a.clone(), b.clone())),
            )?;
            let ct = resp.result.map_err(|e| format!("{id}: {e}"))?;
            assert_eq!(&ct, expect, "tenant {id} must be bit-identical");
            println!(
                "round {round}: tenant {id:<5} hmult ok (batch={}, waited={}us, bit-identical)",
                resp.batch_size, resp.waited_us
            );
        }
    }
    let cache = server.tenants().cache_stats();
    println!(
        "key cache under a 1-byte budget: {} hits, {} misses, {} evictions (and zero divergence)",
        cache.hits, cache.misses, cache.evictions
    );

    // -- 3. Typed refusals over the wire ---------------------------------
    let (id, a, _, _) = &tenants[0];
    let mut client = NetClient::connect(net.local_addr())?;
    let resp = client.call_checked(Some("mallory"), &Request::new(ServeOp::Rescale(a.clone())))?;
    println!(
        "unknown tenant: {}",
        resp.result.err().unwrap_or_else(|| "unexpected ok".into())
    );
    let resp = client.call_checked(Some(id), &Request::new(ServeOp::Rescale(a.clone())))?;
    assert!(resp.result.is_ok(), "the connection survives a refusal");
    println!("same connection, valid tenant: ok (refusals are per-request, not per-socket)");

    // -- 4. Lossless shutdown: socket first, then the queue --------------
    let net_stats = net.shutdown();
    server.drain();
    for (id, ..) in &tenants {
        let t = server.tenant_stats(id).expect("registered");
        assert_eq!(
            t.enqueued, t.completed,
            "tenant {id} drain must be lossless"
        );
        println!(
            "tenant {id:<5} stats: enqueued={} completed={} rejected={} in_flight={}",
            t.enqueued, t.completed, t.rejected, t.in_flight
        );
    }
    println!(
        "socket stats: accepted={} refused={} frames={} decode_errors={}",
        net_stats.accepted, net_stats.refused, net_stats.frames, net_stats.decode_errors
    );

    if warpdrive::trace::enabled() {
        println!("\n{}", warpdrive::trace::snapshot().summary_report());
    }
    Ok(())
}
