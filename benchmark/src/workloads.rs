//! The four workloads. Each builds its world in `setup` (timed as
//! `setup_s`), then `run`s for a number of seconds and checks every output
//! outside the timed intervals.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::gen::{self, Call, Kind, Rng};
use crate::recorder::{Recorder, SpanId};
use crate::stats;
use crate::surface::{
    self, Ciphertext, Client, Executor, Fixture, Listener, Program, Served, Service, Set,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    OpsSetB,
    CircuitSetC,
    ServeSetA,
    NetLightSetB,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::OpsSetB,
        WorkloadKind::CircuitSetC,
        WorkloadKind::ServeSetA,
        WorkloadKind::NetLightSetB,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::OpsSetB => "ops_setb",
            WorkloadKind::CircuitSetC => "circuit_setc",
            WorkloadKind::ServeSetA => "serve_seta",
            WorkloadKind::NetLightSetB => "net_light_setb",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one unit of work is, for the human-readable report.
    pub fn unit(self) -> &'static str {
        match self {
            WorkloadKind::OpsSetB => "round of 5 ops",
            WorkloadKind::CircuitSetC => "circuit evaluation",
            WorkloadKind::ServeSetA => "request (open loop p50; closed loop rate)",
            WorkloadKind::NetLightSetB => "TCP request",
        }
    }

    /// Latency limit of one unit in milliseconds: a unit that is refused,
    /// wrong or slower than this misses `unit.within_limit_share`.
    pub fn limit_ms(self) -> f64 {
        match self {
            WorkloadKind::OpsSetB => 600.0,
            WorkloadKind::CircuitSetC => 10_000.0,
            WorkloadKind::ServeSetA => 100.0,
            WorkloadKind::NetLightSetB => 50.0,
        }
    }

    /// How often set-up is repeated for the `setup_s` median.
    pub fn setup_repeats(self) -> usize {
        match self {
            WorkloadKind::CircuitSetC => 3,
            _ => 5,
        }
    }
}

/// Largest |decrypted − plaintext| a check accepts, relative to
/// `1 + |plaintext|`. Observed errors stay below 3e-3 at every set (the
/// chain primes are 26 to 27 bits); a wrong operand or a skipped rescale is
/// off by 1e-1 or more.
pub const TOLERANCE: f64 = 2e-2;

/// What one `run` measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Latency of every unit, milliseconds.
    pub unit_ms: Vec<f64>,
    /// Completion times of the throughput phase, ascending, in seconds from
    /// its start (for direct calls: seconds spent inside the calls, so that
    /// the checks between them do not count against the rate).
    pub completions_s: Vec<f64>,
    /// Units sent. A unit that was refused or answered wrongly has no entry
    /// in `unit_ms`, so it misses every latency limit.
    pub units: u64,
    /// Operations whose output was checked, and how many checks failed.
    pub attempted: u64,
    pub failed: u64,
    /// Largest decrypt-versus-plaintext error seen by a check.
    pub max_abs_err: f64,
    /// Counts and shares from the phase itself, by per-layer metric name.
    pub diag: BTreeMap<&'static str, f64>,
    /// Per-kind latencies for the human-readable report.
    pub by_kind: BTreeMap<&'static str, Vec<f64>>,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Records an exact counter and fails the run when it is off.
    fn expect_count(&mut self, name: &'static str, got: u64, want: u64) {
        self.diag.insert(name, got as f64);
        if got != want {
            self.fail(format!("{name} = {got}, expected exactly {want}"));
        }
    }
}

pub trait Workload {
    /// The fixture the per-layer probes run on.
    fn fixture(&self) -> &Fixture;
    /// Whether the unit is one sequential execution of `Program::circuit`.
    fn has_program(&self) -> bool {
        false
    }
    fn run(&mut self, seconds: f64, rec: &Recorder) -> Outcome;
    /// Stops every thread and socket the workload started.
    fn stop(self: Box<Self>) {}
}

pub fn setup(kind: WorkloadKind, seed: u64) -> Box<dyn Workload> {
    match kind {
        WorkloadKind::OpsSetB => Box::new(OpsSetB::setup(seed)),
        WorkloadKind::CircuitSetC => Box::new(CircuitSetC::setup(seed)),
        WorkloadKind::ServeSetA => Box::new(ServeSetA::setup(seed)),
        WorkloadKind::NetLightSetB => Box::new(NetLightSetB::setup(seed)),
    }
}

/// Largest error of `got` against `want`, relative to `1 + |want|`.
fn worst_error(got: &[f64], want: impl Iterator<Item = f64>) -> f64 {
    got.iter()
        .zip(want)
        .map(|(g, w)| (g - w).abs() / (1.0 + w.abs()))
        .fold(0.0, f64::max)
}

/// Slot-wise left rotation by `r`.
fn rotated(v: &[f64], r: usize) -> impl Iterator<Item = f64> + '_ {
    (0..v.len()).map(move |i| v[(i + r) % v.len()])
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

// -- ops_setb ----------------------------------------------------------------

const POOL: usize = 4;

/// SET-B, one thread, direct `wd_ckks` calls in a fixed round:
/// HMULT+relin, HRotate(1), Rescale, encrypt→decrypt, HAdd.
struct OpsSetB {
    fx: Fixture,
    seed: u64,
    /// First result of every distinct op, which repeats must equal bit for
    /// bit.
    first: HashMap<(&'static str, usize, usize), Ciphertext>,
}

impl OpsSetB {
    fn setup(seed: u64) -> Self {
        let slots = Set::B.slots();
        let plain = gen::plain_vectors(seed, POOL, slots, 1.0);
        Self {
            fx: Fixture::build(Set::B, &[1], plain, seed),
            seed,
            first: HashMap::new(),
        }
    }
}

/// Decrypt-and-compare on first sight, bit-identity on every repeat.
fn check_op(
    fx: &Fixture,
    first: &mut HashMap<(&'static str, usize, usize), Ciphertext>,
    out: &mut Outcome,
    key: (&'static str, usize, usize),
    got: Ciphertext,
    want: impl Iterator<Item = f64>,
) {
    out.attempted += 1;
    match first.get(&key) {
        Some(seen) if *seen == got => {}
        Some(_) => out.fail(format!("{key:?}: repeat is not bit-identical")),
        None => {
            let err = worst_error(&fx.decode(&fx.decrypt(&got)), want);
            out.max_abs_err = out.max_abs_err.max(err);
            if err > TOLERANCE {
                out.fail(format!("{key:?}: error {err:e} above {TOLERANCE:e}"));
            }
            first.insert(key, got);
        }
    }
}

impl Workload for OpsSetB {
    fn fixture(&self) -> &Fixture {
        &self.fx
    }

    fn run(&mut self, seconds: f64, rec: &Recorder) -> Outcome {
        let mut out = Outcome::default();
        let mut rng = Rng::new(self.seed, 4);
        let mut busy_s = 0.0;
        let start = Instant::now();
        let mut round = 0u64;
        while start.elapsed().as_secs_f64() < seconds {
            let (a, b, k) = (rng.below(POOL), rng.below(POOL), rng.below(POOL));
            let unit = rec.open("bench", "round", SpanId::NONE, round);
            let mut ms = [0.0; 5];
            let fx = &self.fx;
            let (ca, cb) = (&fx.cts[a], &fx.cts[b]);
            let (m, t) = timed(|| rec.wrap("ckks", "hmult", unit, round, || fx.hmult(ca, cb)));
            ms[0] = t;
            let (rot, t) = timed(|| rec.wrap("ckks", "hrotate", unit, round, || fx.hrotate(ca, 1)));
            ms[1] = t;
            let (res, t) = timed(|| rec.wrap("ckks", "rescale", unit, round, || fx.rescale(&m)));
            ms[2] = t;
            let (dec, t) = timed(|| {
                rec.wrap("ckks", "encrypt_decrypt", unit, round, || {
                    fx.decode(&fx.decrypt(&fx.encrypt(&fx.encode(&fx.plain[k]))))
                })
            });
            ms[3] = t;
            let (sum, t) = timed(|| rec.wrap("ckks", "hadd", unit, round, || fx.hadd(ca, cb)));
            ms[4] = t;
            rec.close(unit);

            let total: f64 = ms.iter().sum();
            busy_s += total / 1e3;
            out.unit_ms.push(total);
            out.completions_s.push(busy_s);
            for (name, t) in ["hmult", "hrotate", "rescale", "encrypt_decrypt", "hadd"]
                .into_iter()
                .zip(ms)
            {
                out.by_kind.entry(name).or_default().push(t);
            }

            // Checks sit between rounds, outside every timed interval.
            let (pa, pb) = (&fx.plain[a], &fx.plain[b]);
            let first = &mut self.first;
            let product = pa.iter().zip(pb).map(|(x, y)| x * y);
            check_op(fx, first, &mut out, ("hmult+rescale", a, b), res, product);
            check_op(fx, first, &mut out, ("hrotate", a, 0), rot, rotated(pa, 1));
            let sum_plain = pa.iter().zip(pb).map(|(x, y)| x + y);
            check_op(fx, first, &mut out, ("hadd", a, b), sum, sum_plain);
            out.attempted += 2; // hmult is checked through its rescale
            let err = worst_error(&dec, fx.plain[k].iter().copied());
            out.max_abs_err = out.max_abs_err.max(err);
            if err > TOLERANCE {
                out.fail(format!("encrypt→decrypt of vector {k}: error {err:e}"));
            }
            round += 1;
        }
        out.units = round;
        out
    }
}

// -- circuit_setc --------------------------------------------------------------

/// SET-C, a fixed `wd_graph` program compiled once in set-up and executed
/// wave by wave on a scheduled executor with a budget of one thread. The
/// second core of this host delivers anything between nothing and a full
/// core from one run to the next (`core.batch_par_efficiency` reads 0.45 to
/// 0.96), so a two-thread evaluation takes 3.4 s or 4.0 s for reasons no
/// change to the program has; `core.batch2_ms.t2` keeps the two-thread
/// number as a layer diagnostic.
struct CircuitSetC {
    fx: Fixture,
    program: Program,
    executor: Executor,
    first: Option<Ciphertext>,
}

impl CircuitSetC {
    fn setup(seed: u64) -> Self {
        // Inputs in ±0.5 keep every intermediate of the cubic within ±1.
        let plain = gen::plain_vectors(seed, 3, Set::C.slots(), 0.5);
        let fx = Fixture::build(Set::C, &[1, 2], plain, seed);
        let program = Program::circuit(&fx);
        Self {
            fx,
            program,
            executor: Executor::auto(1),
            first: None,
        }
    }

    /// The circuit on plaintexts.
    fn expected(&self) -> Vec<f64> {
        let w = &self.fx.plain[2];
        let branch = |x: &[f64]| -> Vec<f64> {
            let m: Vec<f64> = x.iter().zip(w).map(|(a, b)| a * b).collect();
            let s1: Vec<f64> = m.iter().zip(rotated(&m, 1)).map(|(a, b)| a + b).collect();
            let s2: Vec<f64> = s1.iter().zip(rotated(&s1, 2)).map(|(a, b)| a + b).collect();
            s2.iter().map(|v| v * v * v).collect()
        };
        let (b0, b1) = (branch(&self.fx.plain[0]), branch(&self.fx.plain[1]));
        b0.iter().zip(&b1).map(|(a, b)| a + b).collect()
    }
}

impl Workload for CircuitSetC {
    fn fixture(&self) -> &Fixture {
        &self.fx
    }

    fn has_program(&self) -> bool {
        true
    }

    fn run(&mut self, seconds: f64, rec: &Recorder) -> Outcome {
        let mut out = Outcome::default();
        let inputs = &self.fx.cts[..self.program.input_count()];
        let mut busy_s = 0.0;
        let start = Instant::now();
        let mut eval = 0u64;
        while start.elapsed().as_secs_f64() < seconds {
            let unit = rec.open("bench", "evaluation", SpanId::NONE, eval);
            let (got, ms) = timed(|| {
                rec.wrap("graph", "execute", unit, eval, || {
                    self.program.execute(&self.fx, inputs, &self.executor)
                })
            });
            rec.close(unit);
            busy_s += ms / 1e3;
            out.unit_ms.push(ms);
            out.completions_s.push(busy_s);
            out.attempted += 1;
            match &self.first {
                Some(first) if *first == got => {}
                Some(_) => out.fail(format!(
                    "evaluation {eval} is not bit-identical to the first"
                )),
                None => {
                    let values = self.fx.decode(&self.fx.decrypt(&got));
                    let err = worst_error(&values, self.expected().into_iter());
                    out.max_abs_err = err;
                    if err > TOLERANCE {
                        out.fail(format!("circuit output error {err:e} above {TOLERANCE:e}"));
                    }
                    self.first = Some(got);
                }
            }
            eval += 1;
        }
        out.units = eval;
        out
    }
}

// -- serving, shared -----------------------------------------------------------

/// Every distinct call of a pool, computed directly: what a served
/// response must equal bit for bit.
fn direct_results(fx: &Fixture, kinds: &[Kind]) -> BTreeMap<Call, Ciphertext> {
    let mut table = BTreeMap::new();
    for &kind in kinds {
        for a in 0..POOL {
            for b in 0..POOL {
                // A rotation has one operand; keep one entry per `a`.
                let b = if kind == Kind::Rotate { a } else { b };
                let call = Call { kind, a, b };
                table.entry(call).or_insert_with(|| fx.direct(call));
            }
        }
    }
    table
}

fn normalised(mut call: Call) -> Call {
    if call.kind == Kind::Rotate {
        call.b = call.a;
    }
    call
}

/// How the responses of one phase were batched.
#[derive(Default)]
struct BatchTally {
    responses: f64,
    batch_sizes: f64,
    by_size: f64,
    by_linger: f64,
    waited_ms: Vec<f64>,
}

impl BatchTally {
    fn add(&mut self, served: Served) {
        self.responses += 1.0;
        self.batch_sizes += served.batch_size as f64;
        self.by_size += f64::from(u8::from(served.by_size));
        self.by_linger += f64::from(u8::from(served.by_linger));
        self.waited_ms.push(served.waited_us as f64 / 1e3);
    }

    fn mean_batch(&self) -> f64 {
        self.batch_sizes / self.responses.max(1.0)
    }
}

/// The server's exact counters, which fail the run when off, and how the
/// responses of the throughput phase were batched.
fn record_service(out: &mut Outcome, service: &Service, tenants: u64, tally: &BatchTally) {
    let counters = service.counters();
    out.expect_count("serve.shed", counters.shed, 0);
    out.expect_count("serve.rejected", counters.rejected, 0);
    out.expect_count("serve.keycache_misses", counters.keycache_misses, tenants);
    out.expect_count("serve.keycache_evictions", counters.keycache_evictions, 0);
    let responses = tally.responses.max(1.0);
    for (name, value) in [
        ("serve.keycache_hits", counters.keycache_hits as f64),
        ("serve.batches", counters.batches as f64),
        ("serve.batch_mean", tally.mean_batch()),
        ("serve.flush_size_share", tally.by_size / responses),
        ("serve.flush_linger_share", tally.by_linger / responses),
    ] {
        out.diag.insert(name, value);
    }
}

/// Server-reported wait as a share of what the client saw.
fn waited_share(tally: &BatchTally, unit_ms: &[f64]) -> f64 {
    stats::median(&tally.waited_ms) / stats::median(unit_ms).max(1e-9)
}

// -- serve_seta ------------------------------------------------------------------

const SERVE_MIX: [(Kind, u32); 3] = [(Kind::Mult, 50), (Kind::Rotate, 25), (Kind::Add, 25)];
/// Open-loop arrival rate, a bit over a quarter of what one core sustains
/// (≈ 88 req/s). At 40 req/s the median request sat on the boundary between
/// requests that queue behind another and requests that do not, and
/// identical runs disagreed on p50 by 8%; at 25 req/s it does not queue.
pub const OPEN_RATE: f64 = 25.0;
/// Requests the closed loop keeps in flight.
const OUTSTANDING: usize = 16;
/// Share of the run given to the open-loop phase.
const OPEN_SHARE: f64 = 0.6;

/// SET-A, an in-process `Server`: an open loop at a fixed rate, then a
/// closed loop that saturates it.
struct ServeSetA {
    fx: Fixture,
    service: Service,
    seed: u64,
    expected: BTreeMap<Call, Ciphertext>,
}

impl ServeSetA {
    fn setup(seed: u64) -> Self {
        let plain = gen::plain_vectors(seed, POOL, Set::A.slots(), 1.0);
        let fx = Fixture::build(Set::A, &[1], plain, seed);
        let service = Service::start(&[&fx], true);
        Self {
            fx,
            service,
            seed,
            expected: BTreeMap::new(),
        }
    }

    fn verify(&self, out: &mut Outcome, call: Call, got: Option<Ciphertext>) -> bool {
        out.attempted += 1;
        let ok = got.as_ref() == self.expected.get(&normalised(call));
        if !ok {
            let what = if got.is_some() {
                "differs from the direct call"
            } else {
                "was not served"
            };
            out.fail(format!("{call:?} {what}"));
        }
        ok
    }
}

impl Workload for ServeSetA {
    fn fixture(&self) -> &Fixture {
        &self.fx
    }

    fn run(&mut self, seconds: f64, rec: &Recorder) -> Outcome {
        if self.expected.is_empty() {
            let kinds: Vec<Kind> = SERVE_MIX.iter().map(|m| m.0).collect();
            self.expected = direct_results(&self.fx, &kinds);
        }
        let mut out = Outcome::default();
        let (open_s, sat_s) = (seconds * OPEN_SHARE, seconds * (1.0 - OPEN_SHARE));

        // Phase `open`: arrivals on a seeded schedule, each request timed
        // from the moment it was due, whatever the generator managed.
        let due = gen::arrival_schedule(self.seed, OPEN_RATE, open_s);
        let calls = gen::call_sequence(self.seed, due.len(), &SERVE_MIX, POOL);
        let mut open = BatchTally::default();
        let mut late_ms = Vec::with_capacity(due.len());
        let (tx, rx) = mpsc::channel();
        let phase = Instant::now();
        std::thread::scope(|scope| {
            let (fx, service, due, calls) = (&self.fx, &self.service, &due, &calls);
            scope.spawn(move || {
                for (i, (&due_s, &call)) in due.iter().zip(calls).enumerate() {
                    let req = fx.request(call);
                    let due_at = phase + Duration::from_secs_f64(due_s);
                    std::thread::sleep(due_at.saturating_duration_since(Instant::now()));
                    let unit = rec.open("bench", "request", SpanId::NONE, i as u64);
                    let late = due_at.elapsed().as_secs_f64() * 1e3;
                    let ticket =
                        rec.wrap("serve", "submit", unit, i as u64, || service.submit(0, req));
                    if tx.send((i, due_at, late, unit, ticket)).is_err() {
                        return;
                    }
                }
            });
            // One worker answers in submission order, so waiting in that
            // order stamps each response as it arrives.
            for (i, due_at, late, unit, ticket) in rx {
                let answer =
                    ticket.map(|t| rec.wrap("serve", "wait", unit, i as u64, || surface::wait(t)));
                let ms = due_at.elapsed().as_secs_f64() * 1e3;
                rec.close(unit);
                late_ms.push(late);
                let got = answer.and_then(|(ct, served)| {
                    open.add(served);
                    ct
                });
                if self.verify(&mut out, calls[i], got) {
                    out.unit_ms.push(ms);
                    out.by_kind
                        .entry(kind_name(calls[i].kind))
                        .or_default()
                        .push(ms);
                }
            }
        });

        // Phase `sat`: one client keeps sixteen requests in flight.
        let mut sat = BatchTally::default();
        let mut sat_ms = Vec::new();
        let sat_calls = gen::call_sequence(self.seed.wrapping_add(1), 4096, &SERVE_MIX, POOL);
        let mut next_call = sat_calls.iter().copied().cycle();
        let mut in_flight = VecDeque::with_capacity(OUTSTANDING);
        let phase = Instant::now();
        let mut id = due.len() as u64;
        loop {
            let accepting = phase.elapsed().as_secs_f64() < sat_s;
            while accepting && in_flight.len() < OUTSTANDING {
                let call = next_call.next().expect("a cycle never ends");
                let req = self.fx.request(call);
                let unit = rec.open("bench", "request", SpanId::NONE, id);
                let sent = Instant::now();
                let ticket = rec.wrap("serve", "submit", unit, id, || self.service.submit(0, req));
                in_flight.push_back((call, unit, id, sent, ticket));
                id += 1;
            }
            let Some((call, unit, id, sent, ticket)) = in_flight.pop_front() else {
                break;
            };
            let answer = ticket.map(|t| rec.wrap("serve", "wait", unit, id, || surface::wait(t)));
            let (done_s, ms) = (
                phase.elapsed().as_secs_f64(),
                sent.elapsed().as_secs_f64() * 1e3,
            );
            rec.close(unit);
            let got = answer.and_then(|(ct, served)| {
                sat.add(served);
                ct
            });
            if self.verify(&mut out, call, got) && done_s < sat_s {
                out.completions_s.push(done_s);
                sat_ms.push(ms);
            }
        }
        record_service(&mut out, &self.service, 1, &sat);
        out.diag.insert("serve.batch_mean_open", open.mean_batch());
        out.diag.insert(
            "serve.gen_late_share",
            late_ms.iter().filter(|&&ms| ms > 1.0).count() as f64 / late_ms.len().max(1) as f64,
        );
        let share = waited_share(&open, &out.unit_ms);
        out.diag.insert("serve.waited_share", share);
        out.by_kind.insert("gen_late", late_ms);
        out.by_kind.insert("sat_latency", sat_ms);
        out.units = due.len() as u64;
        out
    }

    fn stop(self: Box<Self>) {
        self.service.stop();
    }
}

fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Mult => "hmult",
        Kind::Rotate => "hrotate",
        Kind::Add => "hadd",
        Kind::Sub => "hsub",
    }
}

// -- net_light_setb --------------------------------------------------------------

const NET_MIX: [(Kind, u32); 2] = [(Kind::Add, 50), (Kind::Sub, 50)];
/// Distinct requests each tenant's connection cycles through, prebuilt so
/// the closed loop spends its time in calls, not in cloning operands.
const NET_REQUESTS: usize = 8;

/// SET-B over loopback TCP: two connections, one per tenant, HAdd/HSub
/// only, so framing, codecs, socket copies and the key lease are the
/// request. One client thread keeps one request in flight, alternating
/// between the connections: a request's stages then run one after another
/// and never need the host's second core, which is not always there (two
/// concurrent clients read anything from 98 to 174 req/s).
struct NetLightSetB {
    fxs: Vec<Fixture>,
    service: Service,
    listener: Listener,
    clients: Vec<Client>,
    seed: u64,
}

impl NetLightSetB {
    fn setup(seed: u64) -> Self {
        let fxs: Vec<Fixture> = (0..2u64)
            .map(|t| {
                let plain = gen::plain_vectors(seed + t, POOL, Set::B.slots(), 1.0);
                Fixture::build(Set::B, &[1], plain, seed + t)
            })
            .collect();
        let service = Service::start(&[&fxs[0], &fxs[1]], false);
        let listener = Listener::start(&service);
        let clients = (0..2).map(|_| Client::connect(listener.addr())).collect();
        Self {
            fxs,
            service,
            listener,
            clients,
            seed,
        }
    }
}

impl Workload for NetLightSetB {
    fn fixture(&self) -> &Fixture {
        &self.fxs[0]
    }

    fn run(&mut self, seconds: f64, rec: &Recorder) -> Outcome {
        let mut out = Outcome::default();
        // Per tenant: the calls, their requests, and what each must answer.
        let pools: Vec<_> = (self.fxs.iter().enumerate())
            .map(|(tenant, fx)| {
                let calls =
                    gen::call_sequence(self.seed + tenant as u64, NET_REQUESTS, &NET_MIX, POOL);
                let requests: Vec<_> = calls.iter().map(|&c| fx.request(c)).collect();
                let expected: Vec<_> = calls.iter().map(|&c| fx.direct(c)).collect();
                (calls, requests, expected)
            })
            .collect();
        let mut rng = Rng::new(self.seed, 6);
        let mut tally = BatchTally::default();
        let phase = Instant::now();
        while phase.elapsed().as_secs_f64() < seconds {
            let id = out.units;
            let tenant = (id % 2) as usize;
            let (calls, requests, expected) = &pools[tenant];
            let pick = rng.below(NET_REQUESTS);
            let client = &mut self.clients[tenant];
            let unit = rec.open("bench", "request", SpanId::NONE, id);
            let ((got, served), ms) = timed(|| {
                rec.wrap("net", "call", unit, id, || {
                    client.call(tenant, &requests[pick])
                })
            });
            rec.close(unit);
            let done_s = phase.elapsed().as_secs_f64();
            out.units += 1;
            out.attempted += 1;
            if got.as_ref() == Some(&expected[pick]) {
                out.unit_ms.push(ms);
                tally.add(served);
                if done_s < seconds {
                    out.completions_s.push(done_s);
                }
            } else {
                out.fail(format!(
                    "tenant {tenant}: {:?} is not the direct result",
                    calls[pick]
                ));
            }
        }
        record_service(&mut out, &self.service, 2, &tally);
        let (frames, decode_errors) = self.listener.frames();
        out.expect_count("serve.net_decode_errors", decode_errors, 0);
        out.diag.insert("serve.net_frames", frames as f64);
        let share = waited_share(&tally, &out.unit_ms);
        out.diag.insert("serve.waited_share", share);
        out
    }

    fn stop(self: Box<Self>) {
        let this = *self;
        drop(this.clients);
        this.listener.stop();
        this.service.stop();
    }
}
