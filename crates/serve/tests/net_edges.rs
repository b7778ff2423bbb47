//! Socket-level edge cases against the live TCP listener: split frames and
//! short reads, slow-loris partial headers, oversized length prefixes,
//! garbage frames, frames of the retired wire versions, the connection cap
//! — and the headline acceptance drill:
//! two tenants round-tripping concurrently over real sockets, bit-identical
//! to their sequential fault-free references under `0.05` fault injection
//! and forced key-cache eviction churn.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use warpdrive_core::{BatchExecutor, EvalKeys, FaultPlan};
use wd_ckks::cipher::Ciphertext;
use wd_ckks::keys::KeyPair;
use wd_ckks::{CkksContext, ParamSet};
use wd_serve::net::{read_frame, write_frame, MAX_FRAME_BYTES};
use wd_serve::{
    wire, NetClient, NetConfig, NetServer, Request, ServeConfig, ServeKeys, ServeOp, Server,
    TenantConfig, TenantRegistry,
};

/// One shared small-ring context for the plain edge tests (the concurrency
/// drill builds its own per-tenant contexts).
fn shared() -> &'static (Arc<CkksContext>, KeyPair) {
    static CELL: OnceLock<(Arc<CkksContext>, KeyPair)> = OnceLock::new();
    CELL.get_or_init(|| {
        let params = ParamSet::set_a().with_degree(1 << 6).build().unwrap();
        let ctx = CkksContext::with_seed(params, 0xE16E5).unwrap();
        let kp = ctx.keygen();
        (Arc::new(ctx), kp)
    })
}

fn net_config() -> NetConfig {
    NetConfig {
        addr: "127.0.0.1:0".into(),
        io_timeout: Duration::from_millis(200),
        ..NetConfig::default()
    }
}

/// Spins up a default-tenant server + listener for the edge tests.
fn start_default() -> (Arc<Server>, NetServer) {
    let (ctx, kp) = shared();
    let server = Arc::new(Server::start(
        Arc::clone(ctx),
        ServeKeys::with_relin(kp.relin.clone()),
        ServeConfig {
            linger: Duration::from_micros(100),
            ..ServeConfig::default()
        },
    ));
    let net = NetServer::start(Arc::clone(&server), net_config()).expect("bind loopback");
    (server, net)
}

fn sample_request() -> Request {
    let (ctx, kp) = shared();
    let a = ctx.encrypt_values(&[1.0, 2.0], &kp.public).unwrap();
    let b = ctx.encrypt_values(&[3.0, 4.0], &kp.public).unwrap();
    Request::new(ServeOp::HAdd(a, b))
}

/// Reads until EOF or error — either way the server hung up.
fn assert_closed(stream: &mut TcpStream) {
    let mut buf = [0u8; 64];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

#[test]
fn split_frames_and_short_reads_decode_fine() {
    let (server, net) = start_default();
    let frame = wire::encode_request_v3(9, None, &sample_request()).unwrap();
    let mut stream = TcpStream::connect(net.local_addr()).unwrap();
    // Drip the transport frame across many writes: 2-byte header chunks,
    // then the body in thirds, each gap well inside the io timeout. The
    // server must reassemble exactly one request from the pieces.
    let len = (frame.len() as u32).to_le_bytes();
    for half in len.chunks(2) {
        stream.write_all(half).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    for third in frame.chunks(frame.len().div_ceil(3)) {
        stream.write_all(third).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    let resp = read_frame(&mut stream, MAX_FRAME_BYTES)
        .unwrap()
        .expect("response frame");
    let resp = wire::decode_response(&resp).unwrap();
    assert_eq!(resp.id, 9, "response must echo the client's wire id");
    assert!(resp.result.is_ok(), "split frame must serve normally");
    drop(stream);
    let stats = net.shutdown();
    assert_eq!((stats.frames, stats.decode_errors), (1, 0));
    server.drain();
}

#[test]
fn slow_loris_partial_header_is_dropped_without_a_response() {
    let (server, net) = start_default();
    let mut stream = TcpStream::connect(net.local_addr()).unwrap();
    // Two header bytes, then silence: a mid-frame stall past the io
    // timeout. The server must hang up rather than hold the thread.
    stream.write_all(&[0x08, 0x00]).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(600));
    assert_closed(&mut stream);
    let stats = net.shutdown();
    assert_eq!(stats.frames, 0, "a stalled header is never a frame");
    server.drain();
}

#[test]
fn oversized_length_prefix_is_refused_with_an_error_frame() {
    let (server, net) = start_default();
    let mut stream = TcpStream::connect(net.local_addr()).unwrap();
    // Declare a 4 GiB frame; the server must refuse by *declared* length —
    // before any allocation or read of the body.
    stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
    stream.flush().unwrap();
    let resp = read_frame(&mut stream, MAX_FRAME_BYTES)
        .unwrap()
        .expect("error frame before close");
    let resp = wire::decode_response(&resp).unwrap();
    let msg = resp.result.expect_err("oversized length must error");
    assert!(msg.contains("cap"), "error names the cap: {msg}");
    assert_closed(&mut stream);
    let stats = net.shutdown();
    assert_eq!(stats.decode_errors, 1);
    server.drain();
}

#[test]
fn garbage_frame_gets_a_decode_error_then_close() {
    let (server, net) = start_default();
    let mut stream = TcpStream::connect(net.local_addr()).unwrap();
    write_frame(&mut stream, b"not a WDSV frame at all").unwrap();
    let resp = read_frame(&mut stream, MAX_FRAME_BYTES)
        .unwrap()
        .expect("error frame before close");
    let resp = wire::decode_response(&resp).unwrap();
    assert_eq!(resp.id, 0, "no trustworthy wire id in a garbage frame");
    assert!(resp.result.is_err());
    // The stream can no longer be trusted to be aligned: the server closes
    // instead of guessing where the next frame starts.
    assert_closed(&mut stream);
    let stats = net.shutdown();
    assert_eq!((stats.frames, stats.decode_errors), (1, 1));
    server.drain();
}

/// The unchecksummed wire versions 1 and 2 are gone: a frame of either,
/// spelled out byte by byte (no encoder for them exists), gets the typed
/// version error back in a checksummed frame, is counted as a decode
/// error, and costs the sender its connection.
#[test]
fn v1_and_v2_frames_are_refused_typed_and_counted() {
    let (server, net) = start_default();
    // magic | version | kind | id | [v2: tenant label], then a body that
    // is never looked at: class, no deadline, RESCALE, a cut-off operand.
    let old_frame = |version: u8, kind: u8, label: &[u8]| {
        let mut f = [b"WDSV".as_slice(), &[version, kind], &7u64.to_le_bytes()].concat();
        f.extend_from_slice(label);
        f.extend_from_slice(&[0, 0, 4, 0xC7, 0x01]);
        f
    };
    let v1_response = old_frame(1, 2, b"");
    let refused = "unsupported serve frame version";
    for frame in [
        old_frame(1, 1, b""),
        old_frame(2, 1, b"\x05alice"),
        v1_response.clone(),
    ] {
        let mut stream = TcpStream::connect(net.local_addr()).unwrap();
        write_frame(&mut stream, &frame).unwrap();
        let resp = read_frame(&mut stream, MAX_FRAME_BYTES).unwrap().unwrap();
        // The refusal itself verifies under the one decoder there is.
        let msg = wire::decode_response(&resp).unwrap().result.unwrap_err();
        assert!(msg.contains(&format!("{refused} {}", frame[4])), "{msg}");
        assert_closed(&mut stream);
    }
    // A client is no more willing to read a v1 response than the server.
    let err = wire::decode_response(&v1_response).unwrap_err();
    assert!(err.to_string().contains(refused), "{err}");
    let stats = net.shutdown();
    assert_eq!((stats.frames, stats.decode_errors), (3, 3));
    assert_eq!(server.drain().submitted, 0, "nothing reached the queue");
}

#[test]
fn connection_cap_refuses_with_an_error_frame() {
    let (ctx, kp) = shared();
    let server = Arc::new(Server::start(
        Arc::clone(ctx),
        ServeKeys::with_relin(kp.relin.clone()),
        ServeConfig::default(),
    ));
    let net = NetServer::start(
        Arc::clone(&server),
        NetConfig {
            max_conns: 1,
            ..net_config()
        },
    )
    .expect("bind loopback");
    // First connection occupies the only slot (prove it is live with a
    // round-trip so the accept loop has surely counted it).
    let mut first = NetClient::connect(net.local_addr()).unwrap();
    let resp = first.call_checked(None, &sample_request()).unwrap();
    assert!(resp.result.is_ok());
    // Second connection: refused with one error frame, then closed.
    let mut second = TcpStream::connect(net.local_addr()).unwrap();
    let refusal = read_frame(&mut second, MAX_FRAME_BYTES)
        .unwrap()
        .expect("refusal frame");
    let refusal = wire::decode_response(&refusal).unwrap();
    let msg = refusal.result.expect_err("over-cap connect must error");
    assert!(msg.contains("connection limit"), "{msg}");
    assert_closed(&mut second);
    // The occupied slot still works after the refusal.
    assert!(first
        .call_checked(None, &sample_request())
        .unwrap()
        .result
        .is_ok());
    drop(first);
    let stats = net.shutdown();
    assert_eq!((stats.accepted, stats.refused), (1, 1));
    server.drain();
}

#[test]
fn quota_and_unknown_tenant_errors_cross_the_wire() {
    let (ctx, kp) = shared();
    let mut reg = TenantRegistry::new(TenantConfig {
        quota: 1,
        ..TenantConfig::default()
    });
    reg.register(
        "alice",
        Arc::clone(ctx),
        ServeKeys::with_relin(kp.relin.clone()),
    )
    .unwrap();
    // Nothing flushes on its own: a hold keeps the idle worker from
    // taking it, the linger bound is far away and the size trigger out of
    // reach, so an admitted request stays in flight.
    let server = Arc::new(Server::start_tenants(
        reg,
        ServeConfig {
            max_batch: 64,
            linger: Duration::from_secs(10),
            ..ServeConfig::default()
        },
    ));
    let _hold = server.hold();
    let net = NetServer::start(Arc::clone(&server), net_config()).expect("bind loopback");

    // An unregistered tenant is a typed refusal, and the connection stays
    // usable for well-addressed traffic afterwards.
    let mut probe = NetClient::connect(net.local_addr()).unwrap();
    let resp = probe
        .call_checked(Some("nobody"), &sample_request())
        .unwrap();
    assert!(
        resp.result
            .as_ref()
            .expect_err("unknown tenant")
            .contains("unknown tenant"),
        "{resp:?}"
    );

    // Fill alice's quota from a raw socket (a NetClient would block on the
    // response that cannot come until drain).
    let mut holder = TcpStream::connect(net.local_addr()).unwrap();
    let held = wire::encode_request_v3(1, Some("alice"), &sample_request()).unwrap();
    write_frame(&mut holder, &held).unwrap();
    // Wait until the request is admitted (in flight), not merely sent.
    for _ in 0..100 {
        if server.tenant_stats("alice").map(|s| s.in_flight) == Some(1) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.tenant_stats("alice").unwrap().in_flight, 1);

    // The quota is exhausted: the next submit for alice is refused with
    // the typed signal, naming the numbers.
    let resp = probe
        .call_checked(Some("alice"), &sample_request())
        .unwrap();
    let msg = resp.result.expect_err("quota exhausted");
    assert!(
        msg.contains("quota exceeded") && msg.contains('1'),
        "quota error names the numbers: {msg}"
    );
    let rejected = server.tenant_stats("alice").unwrap().rejected;
    assert_eq!(rejected, 1, "the refusal is accounted to the tenant");

    // Drain flushes the held request; its response arrives on the raw
    // socket — the quota hold never lost it.
    server.drain();
    let resp = read_frame(&mut holder, MAX_FRAME_BYTES)
        .unwrap()
        .expect("held response after drain");
    let resp = wire::decode_response(&resp).unwrap();
    assert_eq!(resp.id, 1);
    assert!(resp.result.is_ok());
    drop(holder);
    drop(probe);
    net.shutdown();
    let alice = server.tenant_stats("alice").unwrap();
    assert_eq!(
        (alice.enqueued, alice.completed, alice.in_flight),
        (1, 1, 0)
    );
}

/// Plain requests are checked against the tenant's chain at admission:
/// two ciphertexts over primes the tenant's context does not have are a
/// typed `LevelMismatch` answer, not a sum computed over a foreign chain,
/// and the connection stays usable.
#[test]
fn operands_off_the_tenants_chain_are_refused_at_admission() {
    let (ctx, kp) = shared();
    let foreign = {
        let params = ParamSet::set_c()
            .with_degree(1 << 6)
            .with_level(2)
            .build()
            .unwrap();
        let fctx = CkksContext::with_seed(params, 0xF0E1).unwrap();
        let fkp = fctx.keygen();
        let a = fctx.encrypt_values(&[1.0], &fkp.public).unwrap();
        let b = fctx.encrypt_values(&[2.0], &fkp.public).unwrap();
        (a, b)
    };
    assert_ne!(
        foreign.0.c0.primes(),
        ctx.params().q_at(foreign.0.level).to_vec(),
        "the operands must be over another chain"
    );
    let (server, net) = start_default();
    let mut client = NetClient::connect(net.local_addr()).unwrap();
    let (a, b) = foreign;
    for op in [
        ServeOp::HAdd(a.clone(), b.clone()),
        ServeOp::HSub(a.clone(), b.clone()),
        ServeOp::HMult(a.clone(), b.clone()),
        ServeOp::HRotate(a.clone(), 1),
        ServeOp::Rescale(a.clone()),
    ] {
        let kind = op.kind();
        let resp = client.call_checked(None, &Request::new(op)).unwrap();
        let msg = resp.result.expect_err(kind);
        assert!(msg.contains("operand mismatch"), "{kind}: {msg}");
    }
    // The same connection still serves well-formed traffic.
    let resp = client.call_checked(None, &sample_request()).unwrap();
    let sum = resp.result.expect("a served HAdd");
    let dec = ctx.decrypt_values(&sum, &kp.secret).unwrap();
    assert!((dec[0] - 4.0).abs() < 1e-2 && (dec[1] - 6.0).abs() < 1e-2);
    assert_eq!(client.reconnects(), 0);
    drop(client);
    let stats = net.shutdown();
    assert_eq!((stats.frames, stats.decode_errors), (6, 0));
    assert_eq!(server.drain().completed, 1, "only the valid request ran");
}

/// The partial-write/poisoning regression: a response the client cannot
/// trust (here: a garbage frame from a hand-rolled listener) must poison
/// the connection, and the **next** call must reconnect instead of reusing
/// the stream. Before the fix, `NetClient` kept the original socket
/// forever: the second call wrote into a connection the server had already
/// abandoned and died on the read — this test's second round trip fails.
#[test]
fn poisoned_client_reconnects_instead_of_reusing_the_stream() {
    use std::net::TcpListener;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let mut accepts = 0u32;
        // Connection 1: consume the request, answer garbage, hang up.
        let (mut s, _) = listener.accept().unwrap();
        accepts += 1;
        read_frame(&mut s, MAX_FRAME_BYTES).unwrap();
        write_frame(&mut s, b"not a WDSV frame").unwrap();
        drop(s);
        // Connection 2: answer properly, echoing the client's wire id.
        let (mut s, _) = listener.accept().unwrap();
        accepts += 1;
        let frame = read_frame(&mut s, MAX_FRAME_BYTES).unwrap().unwrap();
        let (_ver, id, _tenant, _req) = wire::decode_request_versioned(&frame).unwrap();
        let resp = wire::WireResponse {
            id,
            result: Err("served by the fake".into()),
            waited_us: 0,
            batch_size: 1,
            trigger: None,
        };
        write_frame(&mut s, &wire::encode_response_v3(&resp).unwrap()).unwrap();
        accepts
    });

    let mut client =
        NetClient::connect_with(addr, Some(Duration::from_millis(500))).expect("connect");
    assert_eq!(client.reconnects(), 0);
    let err = client
        .call_checked(None, &sample_request())
        .expect_err("a garbage response must surface as a typed error");
    assert!(
        err.to_string().contains("poisoned"),
        "the error names the poison: {err}"
    );
    assert!(client.is_poisoned());
    // The next call transparently reconnects (accept count 1 → 2) and
    // completes a clean round trip on the fresh stream.
    let resp = client
        .call_checked(None, &sample_request())
        .expect("reconnected round trip");
    assert_eq!(
        resp.result.expect_err("fake answers an error"),
        "served by the fake"
    );
    assert!(!client.is_poisoned());
    assert_eq!(client.reconnects(), 1);
    assert_eq!(fake.join().unwrap(), 2, "the fix is the second accept");
}

/// Shutdown racing a connection storm: six clients hammer a capped
/// listener while it is torn down mid-storm. The drain contract holds —
/// every *admitted* request is answered or shed (never lost), every
/// client thread and handler joins (no hang), and no request is left in
/// flight.
#[test]
fn shutdown_racing_a_connection_storm_drains_losslessly() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let (ctx, kp) = shared();
    let server = Arc::new(Server::start(
        Arc::clone(ctx),
        ServeKeys::with_relin(kp.relin.clone()),
        ServeConfig {
            max_batch: 4,
            linger: Duration::from_micros(200),
            workers: 2,
            ..ServeConfig::default()
        },
    ));
    let net = NetServer::start(
        Arc::clone(&server),
        NetConfig {
            max_conns: 4, // below the storm width: some connects are refused
            ..net_config()
        },
    )
    .expect("bind loopback");
    let addr = net.local_addr();

    let down = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..6)
        .map(|_| {
            let down = Arc::clone(&down);
            std::thread::spawn(move || {
                let mut served = 0u64;
                let mut refused = 0u64;
                let Ok(mut client) = NetClient::connect_with(addr, Some(Duration::from_secs(5)))
                else {
                    return (0, 0);
                };
                for _ in 0..24 {
                    match client.call_checked(None, &sample_request()) {
                        Ok(resp) if resp.result.is_ok() => served += 1,
                        // A cap refusal or an admission error frame.
                        Ok(_) => refused += 1,
                        // Transport failure: during the storm that is the
                        // cap slamming the door (poisons, next call
                        // reconnects); once shutdown has begun, stop.
                        Err(_) => {
                            refused += 1;
                            if down.load(Ordering::SeqCst) {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(5));
                        }
                    }
                }
                (served, refused)
            })
        })
        .collect();

    // Let the storm develop, then tear the listener down mid-flight.
    std::thread::sleep(Duration::from_millis(100));
    let stats = net.shutdown();
    down.store(true, Ordering::SeqCst);
    server.drain();

    // Every client thread joins — a hang here IS the failure mode.
    let mut served_total = 0u64;
    for c in clients {
        let (served, _) = c.join().expect("client thread joins");
        served_total += served;
    }
    // Socket accounting: the storm was real (accepts and, with 6 clients
    // against a 4-conn cap, refusals), and the handlers saw every frame
    // the clients got answers for.
    assert!(stats.accepted >= 1, "{stats:?}");
    assert!(stats.frames >= served_total, "{stats:?}");
    // Queue accounting: lossless — everything admitted was answered or
    // shed, nothing is still in flight after the drain.
    let s = server.stats();
    assert_eq!(
        s.submitted,
        s.shed + s.completed,
        "drain must answer every admitted request: {s:?}"
    );
    assert!(s.completed >= served_total, "{s:?}");
    let t = server.tenant_stats(wd_serve::DEFAULT_TENANT).unwrap();
    assert_eq!(t.in_flight, 0, "no request left in flight: {t:?}");
}

/// The acceptance drill: two tenants with their own contexts and keys,
/// served concurrently over real sockets, with faults injecting at the
/// acceptance rate and a 1-byte key-cache budget forcing eviction/reload
/// churn on every lease — every response bit-identical to that tenant's
/// sequential fault-free reference.
#[test]
fn concurrent_tenants_are_bit_identical_under_faults_and_cache_churn() {
    struct TenantFixture {
        id: &'static str,
        ctx: Arc<CkksContext>,
        ops: Vec<ServeOp>,
        expect: Vec<Ciphertext>,
    }

    let mut reg = TenantRegistry::new(TenantConfig {
        key_cache_bytes: 1, // nothing fits: every lease is an eviction/reload
        ..TenantConfig::default()
    });
    let mut fixtures = Vec::new();
    for (id, seed) in [("alice", 11u64), ("bob", 22u64)] {
        let params = ParamSet::set_a().with_degree(1 << 6).build().unwrap();
        let ctx = Arc::new(CkksContext::with_seed(params, seed).unwrap());
        let kp = ctx.keygen();
        let a = ctx.encrypt_values(&[1.5, -2.0, 0.25], &kp.public).unwrap();
        let b = ctx.encrypt_values(&[0.5, 3.0, -1.0], &kp.public).unwrap();
        let ops: Vec<ServeOp> = (0..12)
            .map(|i| match i % 4 {
                0 => ServeOp::HAdd(a.clone(), b.clone()),
                1 => ServeOp::HMult(a.clone(), b.clone()),
                2 => ServeOp::HSub(b.clone(), a.clone()),
                _ => ServeOp::Rescale(b.clone()),
            })
            .collect();
        // The per-tenant reference: sequential, injection disabled.
        let batch: Vec<_> = ops.iter().map(ServeOp::as_batch_op).collect();
        let expect: Vec<Ciphertext> = BatchExecutor::sequential()
            .with_fault_plan(FaultPlan::disabled())
            .execute(&ctx, EvalKeys::with_relin(&kp.relin), &batch)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        reg.register(
            id,
            Arc::clone(&ctx),
            ServeKeys::with_relin(kp.relin.clone()),
        )
        .unwrap();
        fixtures.push(TenantFixture {
            id,
            ctx,
            ops,
            expect,
        });
    }

    let server = Arc::new(Server::start_tenants(
        reg,
        ServeConfig {
            max_batch: 4,
            linger: Duration::from_micros(200),
            workers: 2,
            executor: BatchExecutor::auto(2).with_fault_plan(FaultPlan::new(0xD12111, 0.05)),
            ..ServeConfig::default()
        },
    ));
    let net = NetServer::start(Arc::clone(&server), net_config()).expect("bind loopback");
    let addr = net.local_addr();

    // One client thread per tenant, interleaving interactive and bulk.
    let handles: Vec<_> = fixtures
        .into_iter()
        .map(|fx| {
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                for (i, (op, want)) in fx.ops.iter().zip(&fx.expect).enumerate() {
                    let class = if i % 2 == 0 {
                        wd_serve::Class::Interactive
                    } else {
                        wd_serve::Class::Bulk
                    };
                    let req = Request::new(op.clone()).with_class(class);
                    let resp = client.call_checked(Some(fx.id), &req).expect("round trip");
                    let got = resp.result.expect("served ok");
                    assert_eq!(
                        &got, want,
                        "tenant {} op {i} diverged from its sequential fault-free reference",
                        fx.id
                    );
                }
                drop(client);
                fx.ctx
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    // Every lease under a 1-byte budget is a miss; interleaved tenants
    // must have churned the cache (evictions strictly positive).
    let cache = server.tenants().cache_stats();
    assert_eq!(cache.hits, 0, "1-byte budget never hits");
    assert!(cache.misses >= 2, "both tenants leased: {cache:?}");
    assert!(cache.evictions >= 1, "interleaving must churn: {cache:?}");

    let stats = net.shutdown();
    assert_eq!(stats.frames, 24, "12 frames per tenant");
    assert_eq!(stats.decode_errors, 0);
    server.drain();
    for id in ["alice", "bob"] {
        let t = server.tenant_stats(id).unwrap();
        assert_eq!(
            (t.enqueued, t.completed, t.shed, t.rejected, t.in_flight),
            (12, 12, 0, 0, 0),
            "tenant {id} lossless accounting"
        );
    }
}
