//! The per-layer ladder: unit probes of each layer's public functions, on
//! the workload's own shapes and operands, timed from outside.
//!
//! modmul slab → NTT → keyswitch → HMULT/HRotate → batch → `Server` → TCP:
//! each rung is reported beside the rung below it, so a rung's time can be
//! attributed. Counts derived from parameter arithmetic rather than timed
//! are marked "computed" in the README.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::gen::{Call, Kind};
use crate::stats::{median, percentile};
use crate::surface::{
    self, BaseconvProbe, Ciphertext, Client, Executor, Fixture, Listener, NttProbe, Program,
    Service, SlabProbe, WireProbe,
};

pub type Metrics = BTreeMap<&'static str, f64>;

/// Ops in the `core` batch probe: one HMULT and one HRotate, enough for
/// op-level fan-out over two threads. Two rather than sixteen so the probe
/// also fits a run at SET-C, where one op takes 0.7 s.
const BATCH_MULTS: usize = 1;
const BATCH_ROTATES: usize = 1;

/// How long a probe may repeat. Every probe runs at least [`MIN_REPS`]
/// times, whatever its budget, so that a run at SET-C stays affordable.
#[derive(Clone, Copy)]
pub struct Budget {
    light: Duration,
    heavy: Duration,
}

const MIN_REPS: usize = 2;
const MAX_REPS: usize = 200;

impl Budget {
    pub fn new(quick: bool) -> Self {
        if quick {
            Self {
                light: Duration::from_millis(5),
                heavy: Duration::from_millis(50),
            }
        } else {
            Self {
                light: Duration::from_millis(40),
                heavy: Duration::from_millis(800),
            }
        }
    }
}

/// Seconds of each call of `f`, repeated until `budget` is spent.
fn sample(budget: Duration, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_REPS || (start.elapsed() < budget && out.len() < MAX_REPS) {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64());
    }
    out
}

/// Seconds of `first` and of `second`, called alternately on `state` (an
/// inverse and its forward transform, which undo each other).
fn sample_pair<S>(
    budget: Duration,
    state: &mut S,
    first: impl Fn(&mut S),
    second: impl Fn(&mut S),
) -> (Vec<f64>, Vec<f64>) {
    let start = Instant::now();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    while a.len() < MIN_REPS || (start.elapsed() < budget && a.len() < MAX_REPS) {
        let t = Instant::now();
        first(state);
        a.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        second(state);
        b.push(t.elapsed().as_secs_f64());
    }
    (a, b)
}

fn ms(samples: &[f64]) -> f64 {
    median(samples) * 1e3
}

fn us(samples: &[f64]) -> f64 {
    median(samples) * 1e6
}

/// Runs every rung on `fx`. `own_program_ms` is what one sequential
/// execution of the workload's own compiled program took in its traced
/// pass; workloads without a program get the minimal one.
pub fn run(fx: &Fixture, own_program_ms: Option<f64>, budget: Budget) -> Metrics {
    let mut m = Metrics::new();
    modmath(fx, budget, &mut m);
    polyring(fx, budget, &mut m);
    let units = ckks(fx, budget, &mut m);
    core(fx, &units, budget, &mut m);
    graph(fx, own_program_ms, budget, &mut m);
    serve(fx, budget, &mut m);
    gpusim(fx, &mut m);
    m
}

fn modmath(fx: &Fixture, budget: Budget, m: &mut Metrics) {
    let n = fx.degree() as f64;
    let mut slab = SlabProbe::new(fx);
    let per_coeff = |s: Vec<f64>| median(&s) * 1e9 / n;
    m.insert(
        "modmath.mul_slab_ns_per_coeff",
        per_coeff(sample(budget.light, || slab.mul())),
    );
    m.insert(
        "modmath.mul_add_slab_ns_per_coeff",
        per_coeff(sample(budget.light, || slab.mul_add())),
    );
    m.insert(
        "modmath.scale_slab_ns_per_coeff",
        per_coeff(sample(budget.light, || slab.scale())),
    );
    m.insert(
        "modmath.slab_bytes_per_keyswitch",
        fx.slab_bytes_per_keyswitch() as f64,
    );
}

fn polyring(fx: &Fixture, budget: Budget, m: &mut Metrics) {
    let n = fx.degree() as f64;
    let mut ntt = NttProbe::new(fx);
    let (inv, fwd) = sample_pair(
        budget.light,
        &mut ntt,
        NttProbe::limb_inverse,
        NttProbe::limb_forward,
    );
    m.insert("polyring.ntt_fwd_us_per_limb", us(&fwd));
    m.insert("polyring.ntt_inv_us_per_limb", us(&inv));
    m.insert(
        "polyring.ntt_ns_per_butterfly",
        median(&fwd) * 1e9 / (n / 2.0 * n.log2()),
    );
    for (threads, fwd_name, inv_name) in [
        (
            1,
            "polyring.rns_ntt_fwd_ms.t1",
            "polyring.rns_ntt_inv_ms.t1",
        ),
        (
            2,
            "polyring.rns_ntt_fwd_ms.t2",
            "polyring.rns_ntt_inv_ms.t2",
        ),
    ] {
        let (inv, fwd) = sample_pair(
            budget.light,
            &mut ntt,
            |p| p.rns_inverse(threads),
            |p| p.rns_forward(threads),
        );
        m.insert(fwd_name, ms(&fwd));
        m.insert(inv_name, ms(&inv));
    }
    let conv = BaseconvProbe::new(fx);
    m.insert(
        "polyring.baseconv_ms",
        ms(&sample(budget.light, || conv.run())),
    );
    let (fwd_calls, inv_calls) = fx.ntt_calls_per_keyswitch();
    m.insert(
        "polyring.ntt_calls_per_keyswitch",
        (fwd_calls + inv_calls) as f64,
    );
}

/// Sequential unit times in milliseconds the rungs above attribute to.
struct UnitTimes {
    hmult: f64,
    hrotate: f64,
}

fn ckks(fx: &Fixture, budget: Budget, m: &mut Metrics) -> UnitTimes {
    let (a, b) = (&fx.cts[0], &fx.cts[1]);

    let keyswitch = ms(&sample(budget.heavy, || fx.keyswitch(a)));
    let allocs_before = fx.arena_allocs();
    let hmult_s = sample(budget.heavy, || {
        std::hint::black_box(fx.hmult(a, b));
    });
    let allocs_after = fx.arena_allocs();
    let per_op = |after: u64, before: u64| (after - before) as f64 / hmult_s.len() as f64;
    m.insert(
        "polyring.arena_fresh_per_op",
        per_op(allocs_after.0, allocs_before.0),
    );
    m.insert(
        "polyring.arena_fallback_per_op",
        per_op(allocs_after.1, allocs_before.1),
    );
    let hrotate_s = sample(budget.heavy, || {
        std::hint::black_box(fx.hrotate(a, 1));
    });
    let product = fx.hmult(a, b);
    let rescale = ms(&sample(budget.heavy / 4, || {
        std::hint::black_box(fx.rescale(&product));
    }));
    let remainder = ms(&sample(budget.light, || fx.hmult_remainder(a, b)));
    let hadd = us(&sample(budget.light, || {
        std::hint::black_box(fx.hadd(a, b));
    }));

    // encode → encrypt → decrypt → decode, each stage timed apart and the
    // whole trip as one sample.
    let mut stages: [Vec<f64>; 4] = Default::default();
    let trip = sample(budget.heavy / 4, || {
        let t = Instant::now();
        let pt = fx.encode(&fx.plain[0]);
        stages[0].push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let ct = fx.encrypt(&pt);
        stages[1].push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let dec = fx.decrypt(&ct);
        stages[2].push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(fx.decode(&dec));
        stages[3].push(t.elapsed().as_secs_f64());
    });

    let (hmult, hrotate) = (ms(&hmult_s), ms(&hrotate_s));
    m.insert("ckks.hmult_ms", hmult);
    m.insert("ckks.hrotate_ms", hrotate);
    m.insert("ckks.rescale_ms", rescale);
    m.insert("ckks.encrypt_decrypt_ms", ms(&trip));
    m.insert("ckks.hmult_p90_ms", percentile(&hmult_s, 90.0) * 1e3);
    m.insert("ckks.hrotate_p90_ms", percentile(&hrotate_s, 90.0) * 1e3);
    m.insert("ckks.keyswitch_ms", keyswitch);
    m.insert("ckks.hmult_remainder_ms", remainder);
    m.insert("ckks.hadd_us", hadd);
    m.insert("ckks.encode_ms", ms(&stages[0]));
    m.insert("ckks.encrypt_ms", ms(&stages[1]));
    m.insert("ckks.decrypt_ms", ms(&stages[2]));
    m.insert("ckks.decode_ms", ms(&stages[3]));
    m.insert("ckks.keyswitch_share_of_hmult", keyswitch / hmult);
    m.insert("ckks.keyswitch_share_of_hrotate", keyswitch / hrotate);
    // What HMULT's keyswitch and its timed remainder leave unexplained.
    m.insert(
        "ckks.hmult_unexplained_share",
        (hmult - keyswitch - remainder) / hmult,
    );
    let (fwd_calls, inv_calls) = fx.ntt_calls_per_keyswitch();
    let ntt_ms = (fwd_calls as f64 * m["polyring.ntt_fwd_us_per_limb"]
        + inv_calls as f64 * m["polyring.ntt_inv_us_per_limb"])
        / 1e3;
    m.insert("ckks.ntt_share_of_keyswitch", ntt_ms / keyswitch);
    m.insert("ckks.ct_bytes", fx.ct_bytes() as f64);

    // Decrypt against plaintext arithmetic on fixed operands: the same
    // number for the same seed, whatever the run length.
    let (pa, pb) = (&fx.plain[0], &fx.plain[1]);
    let error = |ct: &Ciphertext, want: &mut dyn Iterator<Item = f64>| {
        (fx.decode(&fx.decrypt(ct)).iter().zip(want))
            .map(|(g, w)| (g - w).abs())
            .fold(0.0, f64::max)
    };
    let fresh = error(a, &mut pa.iter().copied());
    let multiplied = error(
        &fx.rescale(&product),
        &mut pa.iter().zip(pb).map(|(x, y)| x * y),
    );
    m.insert("ckks.max_abs_err", fresh.max(multiplied));

    // The program's own span aggregates, as a measured cross-check of the
    // computed shares: one HMULT and one HRotate with its tracer on.
    surface::program_trace_reset();
    surface::program_tracing(true);
    std::hint::black_box((fx.hmult(a, b), fx.hrotate(a, 1)));
    m.insert(
        "trace.span_ckks_keyswitch_share",
        surface::program_keyswitch_share(),
    );
    surface::program_tracing(false);
    surface::program_trace_reset();

    UnitTimes { hmult, hrotate }
}

fn core(fx: &Fixture, units: &UnitTimes, budget: Budget, m: &mut Metrics) {
    let sequential = BATCH_MULTS as f64 * units.hmult + BATCH_ROTATES as f64 * units.hrotate;
    for (threads, name) in [(1, "core.batch2_ms.t1"), (2, "core.batch2_ms.t2")] {
        let executor = Executor::auto(threads);
        let wall = ms(&sample(budget.heavy, || {
            assert_eq!(
                executor.batch(fx, BATCH_MULTS, BATCH_ROTATES),
                BATCH_MULTS + BATCH_ROTATES,
                "every op of the probe batch succeeds"
            );
        }));
        m.insert(name, wall);
        if threads == 2 {
            m.insert("core.batch_par_efficiency", sequential / (wall * 2.0));
        }
    }
    // A batch of one against the direct call, alternately, so that drift
    // in the host's speed cancels in each pair's difference.
    let one = Executor::new(1);
    let (direct, batched) = sample_pair(
        budget.heavy,
        &mut (),
        |()| drop(std::hint::black_box(fx.hmult(&fx.cts[0], &fx.cts[1]))),
        |()| {
            one.batch(fx, 1, 0);
        },
    );
    let extra: Vec<f64> = batched.iter().zip(&direct).map(|(b, d)| b - d).collect();
    m.insert("core.execute_overhead_us", us(&extra));
    let (op_width, limb_width) = surface::sched_split(fx, BATCH_MULTS, BATCH_ROTATES, 2);
    m.insert("core.sched_op_width", op_width as f64);
    m.insert("core.sched_limb_width", limb_width as f64);
}

fn graph(fx: &Fixture, own_program_ms: Option<f64>, budget: Budget, m: &mut Metrics) {
    let build = match own_program_ms {
        Some(_) => Program::circuit,
        None => Program::minimal,
    };
    let mut program = None;
    m.insert(
        "graph.compile_us",
        us(&sample(budget.light, || program = Some(build(fx)))),
    );
    let program = program.expect("sampled at least once");
    m.insert("graph.nodes", program.nodes as f64);
    m.insert("graph.waves", program.waves as f64);
    m.insert(
        "graph.auto_inserted_steps",
        program.auto_inserted_steps as f64,
    );

    // One sequential execution against the sequential unit time of every
    // step at its level: what the graph layer itself costs.
    let wall = own_program_ms.unwrap_or_else(|| {
        let inputs = &fx.cts[..program.input_count()];
        let t = Instant::now();
        std::hint::black_box(program.execute(fx, inputs, &Executor::new(1)));
        t.elapsed().as_secs_f64() * 1e3
    });
    let mut unit_ms: BTreeMap<(&'static str, usize), f64> = BTreeMap::new();
    let mut steps = 0.0;
    for &(kind, level) in program.profile.iter().flatten() {
        steps += *unit_ms
            .entry((kind, level))
            .or_insert_with(|| step_ms(fx, kind, level));
    }
    m.insert("graph.exec_overhead_ms", wall - steps);
}

/// One sequential execution of a compiled step's op at its level.
fn step_ms(fx: &Fixture, kind: &str, level: usize) -> f64 {
    let at = |level: usize| -> (Ciphertext, Ciphertext) {
        let level = level.min(fx.max_level());
        (
            fx.level_drop(&fx.cts[0], level),
            fx.level_drop(&fx.cts[1], level),
        )
    };
    let (a, b) = at(level);
    let t = Instant::now();
    match kind {
        "hmult" => drop(std::hint::black_box(fx.hmult(&a, &b))),
        "hrotate" => drop(std::hint::black_box(fx.hrotate(&a, 1))),
        "hadd" => drop(std::hint::black_box(fx.hadd(&a, &b))),
        "hsub" => drop(std::hint::black_box(fx.hsub(&a, &b))),
        // A rescale or a drop that lands on `level` starts one level up.
        "rescale" | "level_drop" => {
            let (above, _) = at(level + 1);
            let t = Instant::now();
            if kind == "rescale" {
                std::hint::black_box(fx.rescale(&above));
            } else {
                std::hint::black_box(fx.level_drop(&above, level));
            }
            return t.elapsed().as_secs_f64() * 1e3;
        }
        // Nothing the benchmark's programs compile to.
        _ => return 0.0,
    }
    t.elapsed().as_secs_f64() * 1e3
}

fn serve(fx: &Fixture, budget: Budget, m: &mut Metrics) {
    let wire = WireProbe::new(fx);
    m.insert(
        "serve.keys_checksum_ms",
        ms(&sample(budget.light, || wire.keys_checksum())),
    );
    m.insert(
        "serve.wire_req_encode_us",
        us(&sample(budget.light, || wire.request_encode())),
    );
    m.insert(
        "serve.wire_req_decode_us",
        us(&sample(budget.light, || wire.request_decode())),
    );
    m.insert(
        "serve.wire_resp_encode_us",
        us(&sample(budget.light, || wire.response_encode())),
    );
    m.insert(
        "serve.wire_resp_decode_us",
        us(&sample(budget.light, || wire.response_decode())),
    );
    m.insert("serve.wire_req_bytes", wire.request_bytes() as f64);
    m.insert(
        "serve.frame_rw_us",
        us(&sample(budget.light, || wire.frame_write_read())),
    );
    m.insert(
        "ckks.wire_ct_encode_us",
        us(&sample(budget.light, || wire.ct_encode())),
    );
    m.insert(
        "ckks.wire_ct_decode_us",
        us(&sample(budget.light, || wire.ct_decode())),
    );

    // One light request at a time through a server of its own, in process
    // and over loopback TCP: the same op and tenant on both paths.
    let call = Call {
        kind: Kind::Add,
        a: 0,
        b: 1,
    };
    let service = Service::start(&[fx], false);
    // The first request pays for loading the tenant's keys into the cache
    // (seconds at SET-C); the probe is of the steady state.
    let warm_up = service
        .submit(0, fx.request(call))
        .expect("an idle server admits");
    surface::wait(warm_up);
    let (mut submit, mut waited, mut overhead, mut in_process) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    sample(budget.heavy / 4, || {
        let req = fx.request(call);
        let t = Instant::now();
        let ticket = service.submit(0, req).expect("an idle server admits");
        submit.push(t.elapsed().as_secs_f64());
        let (_, served) = surface::wait(ticket);
        let total = t.elapsed().as_secs_f64();
        in_process.push(total);
        waited.push(served.waited_us as f64 / 1e6);
        overhead.push(total - served.waited_us as f64 / 1e6);
    });
    m.insert("serve.submit_us", us(&submit));
    m.insert("serve.waited_p50_ms", ms(&waited));
    m.insert("serve.client_overhead_us", us(&overhead));

    let listener = Listener::start(&service);
    let mut client = Client::connect(listener.addr());
    m.insert(
        "serve.health_rtt_us",
        us(&sample(budget.light, || {
            assert!(client.health(), "HEALTH answers")
        })),
    );
    let req = fx.request(call);
    client.call(0, &req); // the first call sizes the connection's buffers
    let over_tcp = sample(budget.heavy / 4, || {
        std::hint::black_box(client.call(0, &req));
    });
    m.insert("serve.net_overhead_ms", ms(&over_tcp) - ms(&in_process));
    drop(client);
    listener.stop();
    service.stop();
}

fn gpusim(fx: &Fixture, m: &mut Metrics) {
    let mut model = (0.0, 0.0);
    let plan = sample(Duration::ZERO, || model = surface::gpu_model_us(fx));
    m.insert("gpusim.hmult_model_us", model.0);
    m.insert("gpusim.hrotate_model_us", model.1);
    // Two ops are planned and simulated per call.
    m.insert("gpusim.host_us_per_plan", us(&plan) / 2.0);
}
