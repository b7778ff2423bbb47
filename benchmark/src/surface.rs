//! The one file that calls into the repository.
//!
//! Everything the harness measures goes through the functions below, and
//! they use only explicit constructors (`BatchExecutor::new/auto`,
//! `ServeConfig { .. }`, `TenantConfig { .. }`, wire v3 codecs). They never
//! touch `CkksContext::set_threads`, `keyswitch_unpooled`,
//! `execute_sharded`, the wire v1/v2 encoders or any `*_from_env` reader,
//! which ROADMAP slates for removal: a change that deletes those cannot
//! break the benchmark it is not allowed to edit.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use warpdrive_core::{
    BatchExecutor, BatchOp, BatchShape, EvalKeys, FaultPlan, HomOp, OpShape, ParScheduler,
    PerfEngine, Placer, PlannerKind,
};
use wd_ckks::keys::RotationKeys;
use wd_ckks::{ops, CkksContext, KeyPair, ParamSet};
use wd_graph::{CompileOptions, CompiledProgram, Graph};
use wd_modmath::rns::BasisConverter;
use wd_modmath::Modulus;
use wd_polyring::ntt::NttTable;
use wd_polyring::rns::RnsPoly;
use wd_polyring::variants::NttVariant;
use wd_serve::wire::{self, WireResponse};
use wd_serve::{
    FlushTrigger, NetClient, NetConfig, NetServer, Request, Response, ServeConfig, ServeKeys,
    ServeOp, Server, TenantConfig, TenantRegistry, Ticket,
};

pub use wd_ckks::{Ciphertext, Plaintext};

use crate::gen::{Call, Kind};

/// Variables that would change what the program does behind the harness's
/// back. The harness sets none and refuses to run with any of them set.
pub const FORBIDDEN_ENV: [&str; 3] = ["WD_THREADS", "WD_TRACE", "WD_FAULT_RATE"];

/// Table VI parameter sets the workloads run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Set {
    A,
    B,
    C,
}

impl Set {
    pub fn slots(self) -> usize {
        self.template().n / 2
    }

    fn template(self) -> ParamSet {
        match self {
            Set::A => ParamSet::set_a(),
            Set::B => ParamSet::set_b(),
            Set::C => ParamSet::set_c(),
        }
    }
}

/// One tenant's world: context, keys, plaintexts and their encryptions.
pub struct Fixture {
    pub ctx: Arc<CkksContext>,
    pub keys: KeyPair,
    pub rot: RotationKeys,
    pub plain: Vec<Vec<f64>>,
    pub cts: Vec<Ciphertext>,
}

impl Fixture {
    /// Parameters, context, key generation, rotation keys and input
    /// encryption: the part of set-up every workload pays.
    pub fn build(set: Set, rotations: &[isize], plain: Vec<Vec<f64>>, seed: u64) -> Self {
        let params = set.template().build().expect("Table VI set builds");
        let ctx = Arc::new(CkksContext::with_seed(params, seed).expect("context builds"));
        let keys = ctx.keygen();
        let rot = ctx.gen_rotation_keys(&keys.secret, rotations, false);
        let cts = plain
            .iter()
            .map(|v| ctx.encrypt_values(v, &keys.public).expect("inputs encrypt"))
            .collect();
        Self {
            ctx,
            keys,
            rot,
            plain,
            cts,
        }
    }

    pub fn degree(&self) -> usize {
        self.ctx.params().degree()
    }

    pub fn max_level(&self) -> usize {
        self.ctx.params().max_level()
    }

    pub fn special(&self) -> usize {
        self.ctx.params().special_count()
    }

    pub fn eval_keys(&self) -> EvalKeys<'_> {
        EvalKeys::with_relin(&self.keys.relin).and_rotations(&self.rot)
    }

    /// The relinearisation key, and the rotation keys when the tenant's
    /// requests rotate: the key lease copies and checksums whatever is
    /// registered, so it is not registered for nothing.
    fn serve_keys(&self, with_rotations: bool) -> ServeKeys {
        let keys = ServeKeys::with_relin(self.keys.relin.clone());
        if with_rotations {
            keys.and_rotations(self.rot.clone())
        } else {
            keys
        }
    }

    // -- direct `wd_ckks` calls ------------------------------------------

    pub fn hmult(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        ops::hmult(&self.ctx, a, b, &self.keys.relin).expect("hmult")
    }

    pub fn hrotate(&self, a: &Ciphertext, r: isize) -> Ciphertext {
        ops::hrotate(&self.ctx, a, r, &self.rot).expect("hrotate")
    }

    pub fn rescale(&self, a: &Ciphertext) -> Ciphertext {
        ops::rescale(&self.ctx, a).expect("rescale")
    }

    pub fn hadd(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        ops::hadd(a, b).expect("hadd")
    }

    pub fn hsub(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        ops::hsub(a, b).expect("hsub")
    }

    pub fn level_drop(&self, a: &Ciphertext, level: usize) -> Ciphertext {
        ops::level_drop(a, level).expect("level_drop")
    }

    pub fn encode(&self, values: &[f64]) -> Plaintext {
        self.ctx.encode(values).expect("encode")
    }

    pub fn encrypt(&self, pt: &Plaintext) -> Ciphertext {
        self.ctx.encrypt(pt, &self.keys.public).expect("encrypt")
    }

    pub fn decrypt(&self, ct: &Ciphertext) -> Plaintext {
        self.ctx.decrypt(ct, &self.keys.secret).expect("decrypt")
    }

    pub fn decode(&self, pt: &Plaintext) -> Vec<f64> {
        self.ctx.decode(pt).expect("decode")
    }

    /// The bare hybrid keyswitch HMULT and HRotate share, on one component
    /// of a ciphertext.
    pub fn keyswitch(&self, ct: &Ciphertext) {
        let out =
            wd_ckks::keyswitch::keyswitch(&self.ctx, &ct.c1, &self.keys.relin).expect("keyswitch");
        std::hint::black_box(out);
    }

    /// HMULT without its keyswitch: the three pointwise products and the
    /// adds (the "timed remainder" of the attribution check).
    pub fn hmult_remainder(&self, a: &Ciphertext, b: &Ciphertext) {
        let mul = |x: &RnsPoly, y: &RnsPoly| x.pointwise(y).expect("pointwise");
        let d0 = mul(&a.c0, &b.c0);
        let d1 = mul(&a.c0, &b.c1).add(&mul(&a.c1, &b.c0)).expect("add");
        // d2 stands in for the keyswitch outputs the two final adds take.
        let d2 = mul(&a.c1, &b.c1);
        let out = (d0.add(&d2).expect("add"), d1.add(&d2).expect("add"));
        std::hint::black_box(out);
    }

    /// The direct call a served request must equal bit for bit.
    pub fn direct(&self, call: Call) -> Ciphertext {
        let (a, b) = (&self.cts[call.a], &self.cts[call.b]);
        match call.kind {
            Kind::Mult => self.hmult(a, b),
            Kind::Rotate => self.hrotate(a, 1),
            Kind::Add => self.hadd(a, b),
            Kind::Sub => self.hsub(a, b),
        }
    }

    /// The same call as an owned serving request.
    pub fn request(&self, call: Call) -> Request {
        let (a, b) = (self.cts[call.a].clone(), self.cts[call.b].clone());
        Request::new(match call.kind {
            Kind::Mult => ServeOp::HMult(a, b),
            Kind::Rotate => ServeOp::HRotate(a, 1),
            Kind::Add => ServeOp::HAdd(a, b),
            Kind::Sub => ServeOp::HSub(a, b),
        })
    }

    /// `(fresh, fallback)` heap allocations of the context's scratch arena
    /// so far.
    pub fn arena_allocs(&self) -> (u64, u64) {
        let s = self.ctx.scratch().stats();
        (s.fresh, s.fallbacks)
    }

    // -- computed (not timed) keyswitch shape at the top level -----------

    /// Single-limb `(forward, inverse)` NTTs in one keyswitch: INTT of the
    /// input, NTT of every extended digit, INTT and NTT of both ModDown
    /// accumulators.
    pub fn ntt_calls_per_keyswitch(&self) -> (usize, usize) {
        let limbs = self.max_level() + 1;
        let full = limbs + self.special();
        let dnum = self.ctx.params().dnum_at(self.max_level());
        (dnum * full + 2 * limbs, limbs + 2 * full)
    }

    /// Bytes the slab kernels of one keyswitch read and write: the two
    /// multiply-accumulates of every digit limb (acc, ext, key in; acc out)
    /// and ModDown's subtract and scale.
    pub fn slab_bytes_per_keyswitch(&self) -> usize {
        let limbs = self.max_level() + 1;
        let full = limbs + self.special();
        let dnum = self.ctx.params().dnum_at(self.max_level());
        let slab = self.degree() * 8;
        dnum * full * 2 * 4 * slab + 2 * limbs * (3 + 2) * slab
    }

    /// Bytes of one top-level ciphertext in memory.
    pub fn ct_bytes(&self) -> usize {
        2 * (self.max_level() + 1) * self.degree() * 8
    }
}

// -- modmath / polyring unit probes -------------------------------------

/// N-length slabs under the first chain prime, for the `Modulus::*_slab_*`
/// kernels.
pub struct SlabProbe {
    m: Modulus,
    a: Vec<u64>,
    b: Vec<u64>,
    out: Vec<u64>,
}

impl SlabProbe {
    pub fn new(fx: &Fixture) -> Self {
        let limb = fx.cts[0].c0.limb(0);
        let a = limb.coeffs().to_vec();
        let b = fx.cts[0].c1.limb(0).coeffs().to_vec();
        Self {
            m: *limb.modulus(),
            out: vec![0; a.len()],
            a,
            b,
        }
    }

    pub fn mul(&mut self) {
        self.m.mul_slab_into(&self.a, &self.b, &mut self.out);
    }

    pub fn mul_add(&mut self) {
        self.m.mul_add_slab_assign(&mut self.out, &self.a, &self.b);
    }

    pub fn scale(&mut self) {
        self.m.scale_slab_assign(&mut self.out, self.a[1]);
    }
}

/// Single-limb and all-limb NTTs on a top-level ciphertext component.
pub struct NttProbe {
    table: Arc<NttTable>,
    limb: Vec<u64>,
    poly: RnsPoly,
    tables: Vec<Arc<NttTable>>,
}

impl NttProbe {
    pub fn new(fx: &Fixture) -> Self {
        let tables = fx.ctx.q_tables(fx.max_level()).to_vec();
        Self {
            table: Arc::clone(&tables[0]),
            limb: fx.cts[0].c0.limb(0).coeffs().to_vec(),
            poly: fx.cts[0].c0.clone(),
            tables,
        }
    }

    pub fn limb_inverse(&mut self) {
        self.table.inverse(&mut self.limb);
    }

    pub fn limb_forward(&mut self) {
        self.table.forward(&mut self.limb);
    }

    /// The component arrives in NTT form, so call this before
    /// [`NttProbe::rns_forward`], alternately.
    pub fn rns_inverse(&mut self, threads: usize) {
        self.poly.ntt_inverse_with(&self.tables, threads);
    }

    pub fn rns_forward(&mut self, threads: usize) {
        self.poly.ntt_forward_with(&self.tables, threads);
    }
}

/// ModUp's base conversion: the first keyswitch digit extended to the full
/// basis, sequentially.
pub struct BaseconvProbe {
    conv: Arc<BasisConverter>,
    src: RnsPoly,
}

impl BaseconvProbe {
    pub fn new(fx: &Fixture) -> Self {
        let level = fx.max_level();
        let alpha = fx.ctx.params().alpha();
        let digit = &fx.ctx.params().q_at(level)[..alpha];
        let conv = fx.ctx.converter(digit, fx.ctx.full_basis(level));
        let mut src = fx.cts[0].c1.clone();
        src.ntt_inverse(fx.ctx.q_tables(level));
        src.drop_limbs(src.limb_count() - alpha);
        Self { conv, src }
    }

    pub fn run(&self) {
        std::hint::black_box(wd_polyring::par::convert_poly(&self.conv, &self.src, 1));
    }
}

// -- core ------------------------------------------------------------------

/// A `BatchExecutor` that never injects faults, whatever the environment.
pub struct Executor(BatchExecutor);

impl Executor {
    /// Op-level fan-out only, over `threads`.
    pub fn new(threads: usize) -> Self {
        Self(BatchExecutor::new(threads).with_fault_plan(FaultPlan::disabled()))
    }

    /// A scheduled budget split between op-level and limb-level work.
    pub fn auto(budget: usize) -> Self {
        Self(BatchExecutor::auto(budget).with_fault_plan(FaultPlan::disabled()))
    }

    /// `mults` HMULTs and `rotates` HRotates on the fixture's first two
    /// ciphertexts, as one batch. Returns how many ops succeeded.
    pub fn batch(&self, fx: &Fixture, mults: usize, rotates: usize) -> usize {
        let ops = batch_ops(fx, mults, rotates);
        let out = self.0.execute(&fx.ctx, fx.eval_keys(), &ops);
        out.iter().filter(|r| r.is_ok()).count()
    }
}

fn batch_ops(fx: &Fixture, mults: usize, rotates: usize) -> Vec<BatchOp<'_>> {
    let (a, b) = (&fx.cts[0], &fx.cts[1]);
    (0..mults)
        .map(|_| BatchOp::HMult(a, b))
        .chain((0..rotates).map(|_| BatchOp::HRotate(a, 1)))
        .collect()
}

/// `(op_width, limb_width)` the scheduler picks for that batch shape under
/// a budget of `budget` threads.
pub fn sched_split(fx: &Fixture, mults: usize, rotates: usize, budget: usize) -> (usize, usize) {
    let shape = BatchShape::of_ops(&batch_ops(fx, mults, rotates));
    let split = ParScheduler::new(budget).split(shape);
    (split.op_width, split.limb_width)
}

// -- graph -----------------------------------------------------------------

/// A compiled program with the counts the compiler reports.
pub struct Program {
    compiled: Arc<CompiledProgram>,
    pub nodes: usize,
    pub waves: usize,
    pub auto_inserted_steps: usize,
    /// `(op kind, level)` of every step, wave by wave.
    pub profile: Vec<Vec<(&'static str, usize)>>,
}

impl Program {
    fn compile(fx: &Fixture, graph: &Graph, rotations: &[isize]) -> Self {
        let options = CompileOptions::new().with_rotation_steps(rotations);
        let compiled = graph
            .compile(fx.ctx.params(), &options)
            .expect("program compiles");
        let stats = *compiled.stats();
        Self {
            nodes: stats.nodes,
            waves: stats.waves,
            auto_inserted_steps: stats.inserted_rescales
                + stats.inserted_relins
                + stats.inserted_aligns,
            profile: compiled.wave_profile(),
            compiled: Arc::new(compiled),
        }
    }

    /// The `circuit_setc` program: two inputs against shared weights, each
    /// multiplied, summed over four neighbouring slots by rotations 1 and
    /// 2, cubed, and the two branches added. Six HMULT, four HRotate,
    /// width-2 waves, three levels.
    pub fn circuit(fx: &Fixture) -> Self {
        let mut g = Graph::new();
        let x = [g.input(), g.input()];
        let w = g.input();
        let branch = x.map(|xi| {
            let m = g.mul(xi, w);
            let r1 = g.rotate(m, 1);
            let s1 = g.add(m, r1);
            let r2 = g.rotate(s1, 2);
            let s2 = g.add(s1, r2);
            let sq = g.mul(s2, s2);
            g.mul(sq, s2)
        });
        let out = g.add(branch[0], branch[1]);
        g.output(out);
        Self::compile(fx, &g, &[1, 2])
    }

    /// One multiply, one rotation and one add: the smallest program that
    /// passes through every compiler stage, for workloads without a
    /// program of their own.
    pub fn minimal(fx: &Fixture) -> Self {
        let mut g = Graph::new();
        let (x, y) = (g.input(), g.input());
        let m = g.mul(x, y);
        let r = g.rotate(m, 1);
        let out = g.add(m, r);
        g.output(out);
        Self::compile(fx, &g, &[1])
    }

    pub fn execute(&self, fx: &Fixture, inputs: &[Ciphertext], executor: &Executor) -> Ciphertext {
        self.compiled
            .execute(&fx.ctx, fx.eval_keys(), inputs, &executor.0)
            .expect("program executes")
            .pop()
            .expect("one output")
    }

    pub fn input_count(&self) -> usize {
        self.compiled.input_count()
    }
}

// -- serve -------------------------------------------------------------------

pub const TENANTS: [&str; 2] = ["t0", "t1"];

/// What a served response says about how it was batched.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub waited_us: u64,
    pub batch_size: usize,
    pub by_size: bool,
    pub by_linger: bool,
}

impl Served {
    fn new(waited_us: u64, batch_size: usize, trigger: Option<FlushTrigger>) -> Self {
        Self {
            waited_us,
            batch_size,
            by_size: trigger == Some(FlushTrigger::Size),
            by_linger: trigger == Some(FlushTrigger::Linger),
        }
    }
}

/// Exact counters of a server and its key cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCounters {
    pub batches: u64,
    pub shed: u64,
    pub rejected: u64,
    pub keycache_hits: u64,
    pub keycache_misses: u64,
    pub keycache_evictions: u64,
}

/// An in-process `Server` over one tenant per fixture (`t0`, `t1`), each
/// registered with its keys under the default 512 MiB key cache with lease
/// verification on.
pub struct Service(Arc<Server>);

impl Service {
    /// One worker, batches of up to eight, 500 µs linger, a one-thread
    /// executor: compute owns one core, the load generator the other.
    pub fn start(fixtures: &[&Fixture], with_rotations: bool) -> Self {
        let mut registry = TenantRegistry::new(TenantConfig {
            key_cache_bytes: 512 << 20,
            quota: usize::MAX,
            verify_keys: true,
            breaker: None,
        });
        for (id, fx) in TENANTS.iter().zip(fixtures) {
            registry
                .register(id, Arc::clone(&fx.ctx), fx.serve_keys(with_rotations))
                .expect("tenant registers");
        }
        let config = ServeConfig {
            queue_capacity: 64,
            max_batch: 8,
            linger: Duration::from_micros(500),
            age_promote: None,
            workers: 1,
            executor: Executor::new(1).0,
            watchdog: Duration::from_secs(5),
            restart_cap: 8,
            placer: Placer::new(1),
        };
        Self(Arc::new(Server::start_tenants(registry, config)))
    }

    pub fn submit(&self, tenant: usize, req: Request) -> Option<Ticket> {
        self.0.submit_as(TENANTS[tenant], req).ok()
    }

    pub fn counters(&self) -> ServeCounters {
        let s = self.0.stats();
        let c = self.0.tenants().cache_stats();
        ServeCounters {
            batches: s.batches,
            shed: s.shed,
            rejected: s.rejected,
            keycache_hits: c.hits,
            keycache_misses: c.misses,
            keycache_evictions: c.evictions,
        }
    }

    /// Answers everything still queued and stops the server's threads.
    pub fn stop(&self) {
        self.0.drain();
    }
}

/// Blocks for the response: the ciphertext (or `None` for a shed or failed
/// request) and how it was served.
pub fn wait(ticket: Ticket) -> (Option<Ciphertext>, Served) {
    let Response {
        result,
        waited_us,
        batch_size,
        trigger,
        ..
    } = ticket.wait();
    (result.ok(), Served::new(waited_us, batch_size, trigger))
}

/// The loopback TCP front-end of a [`Service`].
pub struct Listener(NetServer);

impl Listener {
    pub fn start(service: &Service) -> Self {
        let config = NetConfig {
            addr: "127.0.0.1:0".into(),
            max_conns: 32,
            io_timeout: Duration::from_millis(500),
            max_frame_bytes: 16 << 20,
        };
        Self(NetServer::start(Arc::clone(&service.0), config).expect("loopback listener binds"))
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    /// `(frames, decode_errors)` so far.
    pub fn frames(&self) -> (u64, u64) {
        let s = self.0.stats();
        (s.frames, s.decode_errors)
    }

    /// Closes the sockets and joins the connection threads.
    pub fn stop(self) {
        self.0.shutdown();
    }
}

/// One client connection speaking checksummed v3 frames.
pub struct Client(NetClient);

impl Client {
    pub fn connect(addr: SocketAddr) -> Self {
        Self(NetClient::connect(addr).expect("client connects"))
    }

    pub fn call(&mut self, tenant: usize, req: &Request) -> (Option<Ciphertext>, Served) {
        match self.0.call_checked(Some(TENANTS[tenant]), req) {
            Ok(r) => (
                r.result.ok(),
                Served::new(r.waited_us, r.batch_size, r.trigger),
            ),
            Err(_) => (None, Served::new(0, 0, None)),
        }
    }

    /// A HEALTH round trip: socket and thread hop with no payload.
    pub fn health(&mut self) -> bool {
        self.0.health().is_ok()
    }
}

/// The serve-layer codecs and checks on one request and its response,
/// each timed apart by the caller.
pub struct WireProbe {
    keys: ServeKeys,
    request: Request,
    request_frame: Vec<u8>,
    response: WireResponse,
    response_frame: Vec<u8>,
    ct: Ciphertext,
    ct_bytes: Vec<u8>,
}

impl WireProbe {
    pub fn new(fx: &Fixture) -> Self {
        let call = Call {
            kind: Kind::Add,
            a: 0,
            b: 1,
        };
        let request = fx.request(call);
        let request_frame =
            wire::encode_request_v3(0, Some(TENANTS[0]), &request).expect("encodes");
        let response = WireResponse {
            id: 0,
            result: Ok(fx.direct(call)),
            waited_us: 0,
            batch_size: 1,
            trigger: Some(FlushTrigger::Linger),
        };
        let response_frame = wire::encode_response_v3(&response).expect("encodes");
        Self {
            keys: fx.serve_keys(false),
            request,
            request_frame,
            response,
            response_frame,
            ct_bytes: wd_ckks::wire::ciphertext_to_bytes(&fx.cts[0]),
            ct: fx.cts[0].clone(),
        }
    }

    pub fn keys_checksum(&self) {
        std::hint::black_box(self.keys.checksum());
    }

    pub fn request_encode(&self) {
        std::hint::black_box(wire::encode_request_v3(0, Some(TENANTS[0]), &self.request).ok());
    }

    pub fn request_decode(&self) {
        std::hint::black_box(wire::decode_request_versioned(&self.request_frame).ok());
    }

    pub fn response_encode(&self) {
        std::hint::black_box(wire::encode_response_v3(&self.response).ok());
    }

    pub fn response_decode(&self) {
        std::hint::black_box(wire::decode_response(&self.response_frame).ok());
    }

    pub fn request_bytes(&self) -> usize {
        self.request_frame.len()
    }

    /// `net::write_frame` then `read_frame` of the request frame through an
    /// in-memory buffer.
    pub fn frame_write_read(&self) {
        let mut buf = Vec::with_capacity(self.request_frame.len() + 4);
        wd_serve::net::write_frame(&mut buf, &self.request_frame).expect("in-memory write");
        let frame = wd_serve::net::read_frame(&mut buf.as_slice(), 16 << 20).expect("read");
        std::hint::black_box(frame);
    }

    pub fn ct_encode(&self) {
        std::hint::black_box(wd_ckks::wire::ciphertext_to_bytes(&self.ct));
    }

    pub fn ct_decode(&self) {
        std::hint::black_box(wd_ckks::wire::ciphertext_from_bytes(&self.ct_bytes).ok());
    }
}

// -- trace ---------------------------------------------------------------

/// Turns the program's own aggregate tracing on (`Summary`) or off. The
/// level is set explicitly so the `WD_TRACE` variable is never consulted.
pub fn program_tracing(on: bool) {
    wd_trace::set_level(if on {
        wd_trace::TraceLevel::Summary
    } else {
        wd_trace::TraceLevel::Off
    });
}

/// Forgets everything the program's tracer has aggregated.
pub fn program_trace_reset() {
    wd_trace::reset();
}

/// From the program's own span aggregates: total `ckks.keyswitch` time over
/// total `ckks.hmult` plus `ckks.hrotate` time.
pub fn program_keyswitch_share() -> f64 {
    let data = wd_trace::snapshot();
    let total = |name| data.span_agg("ckks", name).map_or(0.0, |a| a.total_us);
    let outer = total("hmult") + total("hrotate");
    if outer == 0.0 {
        0.0
    } else {
        total("keyswitch") / outer
    }
}

// -- gpu-sim -------------------------------------------------------------

/// Simulated A100 latency in microseconds of HMULT and HRotate at the
/// fixture's shape (PE kernels, WD-FUSE NTT).
pub fn gpu_model_us(fx: &Fixture) -> (f64, f64) {
    let engine = PerfEngine::a100();
    let shape = OpShape::new(fx.degree(), fx.max_level(), fx.special());
    let latency = |op| engine.op_latency_us(op, shape, PlannerKind::PeKernel, NttVariant::WdFuse);
    (latency(HomOp::HMult), latency(HomOp::HRotate))
}
