//! The steady-state drill of the wire path: once warm, a light request
//! allocates no large buffer on either end of the socket.
//!
//! - The decoded operands, the HAdd/HSub result and the client's decoded
//!   response all lease their limbs from `wd_ckks::wire::wire_pool` and
//!   return them when dropped, so warm round trips lease no fresh limb.
//! - Each connection end encodes into and reads into one reused buffer
//!   per direction, so warm round trips grow no frame buffer.
//! - A buffer an oversized frame grew is released once that frame is done.
//!
//! Every check is a deterministic counter (`ArenaStats::fresh`,
//! `NetStats::buffer_grows`, `NetClient::buffer_grows`), not a page-fault
//! count. The wire pool is process-wide, so the drills in this file take
//! turns.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use wd_ckks::cipher::Ciphertext;
use wd_ckks::keys::KeyPair;
use wd_ckks::wire::wire_pool;
use wd_ckks::{CkksContext, ParamSet};
use wd_polyring::rns::{Domain, RnsPoly};
use wd_polyring::Poly;
use wd_serve::{NetClient, NetConfig, NetServer, Request, ServeConfig, ServeKeys, ServeOp, Server};

/// The drills share the process-wide wire pool: one at a time.
static TURN: Mutex<()> = Mutex::new(());

fn shared() -> &'static (Arc<CkksContext>, KeyPair) {
    static CELL: OnceLock<(Arc<CkksContext>, KeyPair)> = OnceLock::new();
    CELL.get_or_init(|| {
        let params = ParamSet::set_a().with_degree(1 << 8).build().unwrap();
        let ctx = CkksContext::with_seed(params, 0x57EAD).unwrap();
        let kp = ctx.keygen();
        (Arc::new(ctx), kp)
    })
}

fn start() -> (Arc<Server>, NetServer, NetClient) {
    let (ctx, kp) = shared();
    let server = Arc::new(Server::start(
        Arc::clone(ctx),
        ServeKeys::with_relin(kp.relin.clone()),
        ServeConfig::default(),
    ));
    let net = NetServer::start(
        Arc::clone(&server),
        NetConfig {
            io_timeout: Duration::from_millis(200),
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let client = NetClient::connect(net.local_addr()).unwrap();
    (server, net, client)
}

/// The HAdd and HSub requests the drills alternate, with their answers.
fn light_requests() -> Vec<(Request, Ciphertext)> {
    let (ctx, kp) = shared();
    let a = ctx.encrypt_values(&[1.0, 2.0], &kp.public).unwrap();
    let b = ctx.encrypt_values(&[0.5, -4.0], &kp.public).unwrap();
    vec![
        (
            Request::new(ServeOp::HAdd(a.clone(), b.clone())),
            wd_ckks::ops::hadd(&a, &b).unwrap(),
        ),
        (
            Request::new(ServeOp::HSub(a.clone(), b.clone())),
            wd_ckks::ops::hsub(&a, &b).unwrap(),
        ),
    ]
}

fn round_trip(client: &mut NetClient, req: &Request, expect: &Ciphertext) {
    let resp = client.call_checked(None, req).unwrap();
    assert_eq!(resp.result.as_ref().expect("served"), expect);
}

#[test]
fn warm_light_requests_lease_no_fresh_limb_and_grow_no_buffer() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let (server, net, mut client) = start();
    let requests = light_requests();
    for (req, expect) in requests.iter().cycle().take(10) {
        round_trip(&mut client, req, expect);
    }
    // A worker drops its batch (the request's operands) just after it
    // answers, so the next request can be decoded before they are back.
    // Park what that overlap can hold at most — two requests' operands, a
    // result and a decoded response, two components each — so timing can
    // never force a fresh lease below; a limb that fails to come back
    // still drains this stock within a few round trips.
    let (n, limbs) = (requests[0].1.degree(), requests[0].1.c0.limb_count());
    let pool = wire_pool();
    let stock: Vec<_> = (0..6 * 2 * limbs).map(|_| pool.take_vec(n)).collect();
    stock.into_iter().for_each(|v| pool.give_vec(v));
    let (pool_before, server_before, client_before) = (
        pool.stats(),
        net.stats().buffer_grows,
        client.buffer_grows(),
    );
    for (req, expect) in requests.iter().cycle().take(50) {
        round_trip(&mut client, req, expect);
    }
    let after = pool.stats();
    assert_eq!(
        after.fresh, pool_before.fresh,
        "a warm request leased a fresh limb"
    );
    assert_eq!(after.fallbacks, pool_before.fallbacks);
    // Per request: two operands on the server, the result, the response
    // on the client — each two components of `limbs` limbs.
    assert!(after.reuses - pool_before.reuses >= 50 * 4 * 2 * limbs as u64);
    assert_eq!(
        net.stats().buffer_grows,
        server_before,
        "a server buffer regrew"
    );
    assert_eq!(
        client.buffer_grows(),
        client_before,
        "a client buffer regrew"
    );
    assert!(
        server_before > 0 && client_before > 0,
        "the first frames grew them"
    );
    drop(client);
    net.shutdown();
    server.drain();
}

/// Two ciphertexts whose request frame is larger than
/// [`wd_serve::net::KEPT_FRAME_BYTES`]: zero limbs over the tenant's first
/// primes, but of a degree the tenant does not use, so admission refuses
/// them after the server has read and decoded the whole frame.
fn oversized_request() -> Request {
    let (ctx, _) = shared();
    let n = 1 << 17;
    let level = ctx.params().max_level();
    let poly = || {
        let limbs = ctx.params().q_at(level);
        let limbs = limbs.iter().map(|&q| Poly::zero(q, n).unwrap()).collect();
        RnsPoly::from_limbs(limbs, Domain::Ntt).unwrap()
    };
    let ct = Ciphertext {
        c0: poly(),
        c1: poly(),
        level,
        scale: 1.0,
    };
    Request::new(ServeOp::HAdd(ct.clone(), ct))
}

#[test]
fn an_oversized_frame_releases_the_buffer_it_grew() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let (server, net, mut client) = start();
    let requests = light_requests();
    let (req, expect) = &requests[0];
    for _ in 0..3 {
        round_trip(&mut client, req, expect);
    }
    let grows = |client: &NetClient| (net.stats().buffer_grows, client.buffer_grows());
    let warm = grows(&client);
    let big = oversized_request();
    let frame = wd_serve::wire::encode_request_v3(0, None, &big).unwrap();
    assert!(frame.len() > wd_serve::net::KEPT_FRAME_BYTES);
    let resp = client.call_checked(None, &big).unwrap();
    assert!(
        resp.result.is_err(),
        "a degree off the tenant's ring is refused"
    );
    let after_big = grows(&client);
    assert!(
        after_big.0 > warm.0 && after_big.1 > warm.1,
        "the big frame grew both ends"
    );
    // The first light request after it must grow again on both ends: the
    // big buffers were released, not kept for it to reuse.
    round_trip(&mut client, req, expect);
    let regrown = grows(&client);
    assert!(
        regrown.0 > after_big.0 && regrown.1 > after_big.1,
        "{after_big:?} -> {regrown:?}"
    );
    // From then on the light frames fit again.
    for _ in 0..5 {
        round_trip(&mut client, req, expect);
    }
    assert_eq!(grows(&client), regrown);
    assert_eq!(client.reconnects(), 0);
    drop(client);
    net.shutdown();
    server.drain();
}
