//! Work-conserving batch formation, end to end. Every server here lingers
//! 10 s, so a response that arrives within a second was taken by a free
//! worker at once — and a lost worker wake shows up as a response about
//! 10 s late. That is why CI repeats this suite in its race canary.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use wd_ckks::cipher::Ciphertext;
use wd_ckks::keys::KeyPair;
use wd_ckks::{CkksContext, ParamSet};
use wd_serve::{FlushTrigger, Request, ServeConfig, ServeKeys, ServeOp, Server};

const LINGER: Duration = Duration::from_secs(10);
/// Far inside the linger: a response this fast did not wait it out.
const PROMPT: Duration = Duration::from_secs(1);

struct Fixture {
    ctx: Arc<CkksContext>,
    kp: KeyPair,
    a: Ciphertext,
    b: Ciphertext,
    sum: Ciphertext,
}

/// One small-ring context shared by every test (the behaviour under test
/// is scheduling, not arithmetic).
fn fixture() -> &'static Fixture {
    static CELL: OnceLock<Fixture> = OnceLock::new();
    CELL.get_or_init(|| {
        let params = ParamSet::set_a().with_degree(1 << 6).build().unwrap();
        let ctx = CkksContext::with_seed(params, 0x1D1E).unwrap();
        let kp = ctx.keygen();
        let a = ctx.encrypt_values(&[1.5, -2.0], &kp.public).unwrap();
        let b = ctx.encrypt_values(&[0.5, 1.0], &kp.public).unwrap();
        let sum = wd_ckks::ops::hadd(&a, &b).unwrap();
        Fixture {
            ctx: Arc::new(ctx),
            kp,
            a,
            b,
            sum,
        }
    })
}

fn hadd() -> Request {
    let fx = fixture();
    Request::new(ServeOp::HAdd(fx.a.clone(), fx.b.clone()))
}

fn start(config: ServeConfig) -> Server {
    let fx = fixture();
    Server::start(
        Arc::clone(&fx.ctx),
        ServeKeys::with_relin(fx.kp.relin.clone()),
        ServeConfig {
            linger: LINGER,
            ..config
        },
    )
}

#[test]
fn a_lone_request_on_an_idle_server_flushes_at_once() {
    let server = start(ServeConfig::default());
    let sent = Instant::now();
    let resp = server.submit(hadd()).unwrap().wait();
    assert!(sent.elapsed() < PROMPT, "lingered: {:?}", sent.elapsed());
    assert_eq!(resp.trigger, Some(FlushTrigger::Idle));
    assert_eq!(resp.batch_size, 1);
    assert_eq!(resp.result.unwrap(), fixture().sum);
    server.shutdown();
}

/// Requests that arrive while the only worker is busy wait for it, and go
/// out the moment it comes back for work. The worker is kept busy by the
/// wedge drill: it parks on its batch until the watchdog replaces it; the
/// replacement runs the re-queued batch first, then must take both
/// waiting requests in one batch.
#[test]
fn requests_queued_behind_a_busy_worker_flush_when_it_finishes() {
    let server = start(ServeConfig {
        workers: 1,
        watchdog: Duration::from_millis(400),
        ..ServeConfig::default()
    });
    server.arm_wedge(1);
    let first = server.submit(hadd()).unwrap();
    // Flushed at once to the idle worker, which parks on it.
    while server.queue_depth() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let behind: Vec<_> = (0..2).map(|_| server.submit(hadd()).unwrap()).collect();
    assert_eq!(
        server.queue_depth(),
        2,
        "no worker is idle: the late requests queue"
    );
    let first = first.wait();
    let finished = Instant::now();
    assert_eq!(first.result.unwrap(), fixture().sum);
    assert_eq!(server.worker_restarts(), 1);
    for t in behind {
        let resp = t.wait();
        assert!(
            finished.elapsed() < PROMPT,
            "the worker came back for work but the requests waited on: {:?}",
            finished.elapsed()
        );
        assert_eq!(resp.trigger, Some(FlushTrigger::Idle));
        assert_eq!(resp.batch_size, 2, "both waited for the same idle worker");
        assert_eq!(resp.result.unwrap(), fixture().sum);
    }
    server.shutdown();
}

#[test]
fn under_a_hold_a_burst_forms_one_size_batch() {
    let server = start(ServeConfig {
        max_batch: 8,
        ..ServeConfig::default()
    });
    let hold = server.hold();
    let tickets: Vec<_> = (0..8).map(|_| server.submit(hadd()).unwrap()).collect();
    for t in tickets {
        let resp = t.wait();
        assert_eq!(resp.trigger, Some(FlushTrigger::Size));
        assert_eq!(resp.batch_size, 8);
        assert_eq!(resp.result.unwrap(), fixture().sum);
    }
    drop(hold);
    assert_eq!(server.shutdown().batches, 1);
}

#[test]
fn concurrent_clients_never_wait_out_the_linger() {
    const CLIENTS: usize = 4;
    const EACH: usize = 50;
    let server = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let start_line = std::sync::Barrier::new(CLIENTS);
    let slowest = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    start_line.wait();
                    (0..EACH)
                        .map(|_| {
                            let resp = server.submit(hadd()).unwrap().wait();
                            assert_eq!(resp.result.as_ref(), Ok(&fixture().sum));
                            resp.waited_us
                        })
                        .max()
                        .unwrap_or(0)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .max()
            .unwrap_or(0)
    });
    assert!(
        Duration::from_micros(slowest) < PROMPT,
        "a response waited {slowest} us: a lost wake left it to the linger"
    );
    let stats = server.shutdown();
    assert_eq!(stats.submitted, (CLIENTS * EACH) as u64);
    assert_eq!(stats.completed, stats.submitted);
}
