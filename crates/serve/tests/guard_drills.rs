//! The self-healing acceptance drill, end to end over real sockets:
//! two tenants served concurrently while the server survives — in one
//! process lifetime — a checksum-detected key corruption (quarantine +
//! reload from the cold copy), a forced worker wedge (watchdog re-queue +
//! respawn), and one tenant driven to breaker-open. Every successful
//! response is bit-identical to that tenant's sequential fault-free
//! reference (zero corrupt results served), every transition is asserted
//! through its `serve.guard.*` / `fault.*` trace counter, and a v3 HEALTH
//! probe observes the whole ladder over the wire.
//!
//! Lives in its own integration-test binary with ONE test function because
//! it resets and asserts the global trace sink.

use std::sync::Arc;
use std::time::Duration;

use warpdrive_core::{BatchExecutor, EvalKeys, FaultPlan};
use wd_ckks::cipher::Ciphertext;
use wd_ckks::{CkksContext, ParamSet};
use wd_serve::{
    BreakerConfig, NetClient, NetConfig, NetServer, Request, ServeConfig, ServeKeys, ServeOp,
    Server, TenantConfig, TenantRegistry,
};
use wd_trace::TraceLevel;

struct TenantFixture {
    id: &'static str,
    ops: Vec<ServeOp>,
    expect: Vec<Ciphertext>,
    /// An op this tenant has no key for (HRotate without rotation keys) —
    /// the deterministic failure the breaker drill feeds on.
    doomed: ServeOp,
}

fn build_fixture(id: &'static str, seed: u64, reg: &mut TenantRegistry) -> TenantFixture {
    let params = ParamSet::set_a().with_degree(1 << 6).build().unwrap();
    let ctx = Arc::new(CkksContext::with_seed(params, seed).unwrap());
    let kp = ctx.keygen();
    let a = ctx.encrypt_values(&[2.0, -1.5, 0.75], &kp.public).unwrap();
    let b = ctx.encrypt_values(&[-0.5, 4.0, 1.25], &kp.public).unwrap();
    let ops: Vec<ServeOp> = (0..16)
        .map(|i| match i % 4 {
            0 => ServeOp::HAdd(a.clone(), b.clone()),
            1 => ServeOp::HMult(a.clone(), b.clone()),
            2 => ServeOp::HSub(b.clone(), a.clone()),
            _ => ServeOp::Rescale(b.clone()),
        })
        .collect();
    let batch: Vec<_> = ops.iter().map(ServeOp::as_batch_op).collect();
    let expect: Vec<Ciphertext> = BatchExecutor::sequential()
        .with_fault_plan(FaultPlan::disabled())
        .execute(&ctx, EvalKeys::with_relin(&kp.relin), &batch)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    reg.register(id, ctx, ServeKeys::with_relin(kp.relin.clone()))
        .unwrap();
    TenantFixture {
        id,
        ops,
        expect,
        doomed: ServeOp::HRotate(a, 1),
    }
}

#[test]
fn corruption_wedge_and_breaker_drills_survive_end_to_end() {
    wd_trace::reset();
    wd_trace::set_level(TraceLevel::Full);

    // Breakers on, tuned so the drill is deterministic: a full window of 4
    // consecutive failures trips (100%), and the 30 s cooldown keeps the
    // breaker open through the rest of the test.
    let mut reg = TenantRegistry::new(TenantConfig {
        breaker: Some(BreakerConfig {
            window: 4,
            threshold_pct: 100,
            cooldown: Duration::from_secs(30),
            probes: 1,
        }),
        ..TenantConfig::default()
    });
    let alice = build_fixture("alice", 101, &mut reg);
    let bob = build_fixture("bob", 202, &mut reg);

    // Parallel executor under ambient fault injection, two workers, and a
    // fast watchdog so the forced wedge resolves in test time.
    let server = Arc::new(Server::start_tenants(
        reg,
        ServeConfig {
            max_batch: 4,
            linger: Duration::from_micros(200),
            workers: 2,
            executor: BatchExecutor::auto(2).with_fault_plan(FaultPlan::new(0x6A5D, 0.05)),
            watchdog: Duration::from_millis(150),
            ..ServeConfig::default()
        },
    ));
    let net = NetServer::start(
        Arc::clone(&server),
        NetConfig {
            addr: "127.0.0.1:0".into(),
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = net.local_addr();

    // --- Phase A: corruption drill, under live two-tenant traffic. ---
    // Warm both tenants' keys into the resident cache (two cold misses),
    // then arm the next two resident-hit verifies to report corruption:
    // each must quarantine the resident copy, reload from the registry's
    // cold copy, and serve the SAME bytes — never a corrupt result.
    let serve_round = |fixtures: &[&TenantFixture], range: std::ops::Range<usize>| {
        let handles: Vec<_> = fixtures
            .iter()
            .map(|fx| {
                let id = fx.id;
                let ops: Vec<_> = fx.ops[range.clone()].to_vec();
                let want: Vec<_> = fx.expect[range.clone()].to_vec();
                std::thread::spawn(move || {
                    // Checksummed v3 frames both ways.
                    let mut client = NetClient::connect(addr).expect("connect");
                    for (i, (op, want)) in ops.iter().zip(&want).enumerate() {
                        let resp = client
                            .call_checked(Some(id), &Request::new(op.clone()))
                            .expect("round trip");
                        let got = resp.result.expect("served ok");
                        assert_eq!(
                            &got, want,
                            "tenant {id} op {i} diverged from its sequential \
                             fault-free reference"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    };

    serve_round(&[&alice, &bob], 0..4);
    server.tenants().arm_key_corruption(2);
    serve_round(&[&alice, &bob], 4..10);
    let cache = server.tenants().cache_stats();
    assert_eq!(
        cache.quarantined, 2,
        "both armed corruptions must quarantine exactly once: {cache:?}"
    );

    // --- Phase B: forced worker wedge under the watchdog. ---
    // The next batch take parks its worker without heartbeats; the
    // watchdog must declare it wedged within ~150 ms, re-queue the batch
    // at the queue front, and respawn the slot — the parked requests are
    // then answered (exactly once, bit-identical) by the replacement.
    server.arm_wedge(1);
    serve_round(&[&alice, &bob], 10..16);
    assert_eq!(
        server.worker_restarts(),
        1,
        "exactly one wedge was forced, exactly one restart must follow"
    );
    assert!(!server.degraded(), "one restart is far below the storm cap");

    // --- Phase C: drive bob to breaker-open. ---
    // Bob has no rotation keys: HRotate fails deterministically. Four
    // consecutive failures fill the 4-window at 100% and trip the breaker;
    // the next submit is refused with the typed circuit-open error before
    // touching the queue.
    let mut bob_client = NetClient::connect(addr).expect("connect");
    for i in 0..4 {
        let resp = bob_client
            .call_checked(Some("bob"), &Request::new(bob.doomed.clone()))
            .expect("transport ok");
        let msg = resp.result.expect_err("rotation without keys must fail");
        assert!(
            !msg.contains("circuit open"),
            "failure {i} is a served error, not yet a breaker refusal: {msg}"
        );
    }
    let refusal = bob_client
        .call_checked(Some("bob"), &Request::new(bob.doomed.clone()))
        .expect("transport ok");
    let msg = refusal.result.expect_err("tripped breaker must refuse");
    assert!(
        msg.contains("circuit open") && msg.contains("bob"),
        "the refusal is the typed circuit-open signal: {msg}"
    );
    // Alice is unaffected: her breaker is closed and traffic flows.
    let mut alice_client = NetClient::connect(addr).expect("connect");
    let resp = alice_client
        .call_checked(Some("alice"), &Request::new(alice.ops[0].clone()))
        .expect("transport ok");
    assert_eq!(resp.result.expect("alice still served"), alice.expect[0]);

    // --- Phase D: the HEALTH frame sees the whole ladder over the wire. ---
    let health = bob_client.health().expect("health probe");
    assert_eq!(health.workers, 2);
    assert_eq!(health.worker_restarts, 1);
    assert!(!health.degraded);
    assert_eq!(health.keycache_quarantined, 2);
    assert!(health.keycache_resident_bytes > 0);
    let ids: Vec<&str> = health.tenants.iter().map(|t| t.id.as_str()).collect();
    assert_eq!(ids, ["alice", "bob"], "tenants enumerate sorted");
    assert_eq!(health.tenants[0].breaker.as_deref(), Some("closed"));
    assert_eq!(health.tenants[1].breaker.as_deref(), Some("open"));
    assert_eq!(health.tenants[0].in_flight, 0);

    // --- Teardown + trace-counter audit. ---
    let net_stats = net.shutdown();
    server.drain();
    assert_eq!(net_stats.decode_errors, 0, "{net_stats:?}");

    // Per-tenant lossless accounting: alice's 16 drill ops + 1 closed-
    // breaker check served clean; bob's 16 drill ops + 4 doomed ops all
    // completed (the doomed ones as errors) and 1 was breaker-refused.
    let a = server.tenant_stats("alice").unwrap();
    assert_eq!(
        (a.enqueued, a.completed, a.shed, a.in_flight),
        (17, 17, 0, 0)
    );
    let b = server.tenant_stats("bob").unwrap();
    assert_eq!(
        (b.enqueued, b.completed, b.shed, b.in_flight),
        (20, 20, 0, 0)
    );
    assert_eq!(b.rejected, 1, "exactly one breaker refusal: {b:?}");

    let t = wd_trace::snapshot();
    for (counter, expect) in [
        ("serve.keycache.quarantined", 2),
        ("serve.guard.wedge_injected", 1),
        ("serve.guard.wedged", 1),
        ("fault.worker_restarts", 1),
        ("serve.guard.breaker_open", 1),
        ("serve.guard.breaker_shed", 1),
        ("serve.net.decode_errors", 0),
    ] {
        assert_eq!(
            t.counter(counter),
            expect,
            "drill counter {counter} must be exactly {expect}"
        );
    }
    assert!(
        t.counter("serve.guard.requeued") >= 1,
        "the wedged batch was re-queued"
    );
    assert!(t.counter("serve.net.health") >= 1, "the probe was counted");
    assert_eq!(
        t.counter("serve.guard.degraded"),
        0,
        "no restart storm, no degrade"
    );
    wd_trace::set_level(TraceLevel::Off);
}
