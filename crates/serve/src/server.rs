//! The serving engine: bounded admission queue, a worker pool that forms
//! its own batches, graceful drain.
//!
//! Thread layout (all plain `std::thread`, no external runtime):
//!
//! ```text
//! clients ──submit──▶ [inbox: pending Vec<Slot> + re-queued batches, one Mutex + Condvar]
//!                        │ worker threads × N, each when free: take a
//!                        │ re-queued batch if any, else shed expired and
//!                        │ FormPolicy::decide (size / drain / idle / linger),
//!                        │ remove the chosen slots, lease keys, then
//!                        │ BatchExecutor::execute
//!                        ▼
//!                     per-request one-shot channels ──▶ Ticket::wait
//! ```
//!
//! Besides the workers only the watchdog runs: it re-queues a wedged
//! worker's batch at the front of the inbox and replaces the thread.
//!
//! Batch formation is work-conserving: a free worker is an idle executor,
//! so it takes whatever is pending at once ([`FlushTrigger::Idle`], at most
//! `max_batch`). The linger only holds requests back while a [`Hold`] is
//! live. Every hand-off (submit, hold release, re-queue, drain) goes
//! through the one inbox mutex, and a worker checks for work and sleeps
//! under that mutex, so no wake can fall between the two.
//!
//! Drain stops the watchdog before it sets `draining`; the workers then
//! flush everything pending and exit once the inbox is empty, so no
//! accepted request is ever dropped and no batch is re-queued after a
//! worker has exited.
//!
//! Responses are **bit-identical to a sequential fault-free run** at every
//! batch size, worker count, and fault seed: each operation is a pure
//! function of its operands, the executor recovers injected faults without
//! altering values, and batching only changes *when* an op runs, never
//! *what* it computes.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use warpdrive_core::{
    BatchExecutor, BatchOp, Decision, EvalKeys, FlushTrigger, FormPolicy, Pending, Placer,
};
use wd_ckks::cipher::Ciphertext;
use wd_ckks::keys::{KeyPoly, KeySwitchKey, RotationKeys};
use wd_ckks::CkksContext;
use wd_fault::integrity::Fnv64;
use wd_fault::WdError;
use wd_graph::CompiledProgram;

use crate::recover;
use crate::request::{Request, Response, ServeOp, Ticket};
use crate::tenant::{Tenant, TenantRegistry, TenantStats, DEFAULT_TENANT};
use crate::wire::{HealthReport, TenantHealth};

/// Serving configuration. [`ServeConfig::default`] is deterministic
/// (sequential executor, one device); callers override fields by struct
/// update.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission queue capacity; submits beyond it are rejected with
    /// [`WdError::QueueFull`].
    pub queue_capacity: usize,
    /// Flush as soon as this many requests wait (the size trigger).
    pub max_batch: usize,
    /// Flush once the oldest pending request has waited this long (the
    /// linger trigger). Takes effect only while a [`Hold`] is live: without
    /// one, a free worker takes whatever is pending at once.
    pub linger: Duration,
    /// Bulk requests waiting at least this long are served as interactive
    /// (`None` = the [`FormPolicy::new`] default: 8 × linger, min 1 ms).
    pub age_promote: Option<Duration>,
    /// Worker threads; each free one forms and executes its own batch.
    pub workers: usize,
    /// The executor each worker runs batches through. Every worker runs
    /// its own clone at the executor's full budget (the split is handed
    /// down per op, nothing is shared through the tenant's context), so
    /// `workers × budget` is what the host is asked for.
    pub executor: BatchExecutor,
    /// Worker supervision bound: a worker holding one batch longer than
    /// this is declared wedged — its batch is re-queued (answered at most
    /// once; see `Formed`) and the thread replaced.
    /// `Duration::ZERO` disables the watchdog.
    pub watchdog: Duration,
    /// Worker restarts after which replacements degrade to the sequential
    /// executor — a restart storm means the parallel path itself is
    /// suspect.
    pub restart_cap: usize,
    /// Device placement. The one legal value is a single device
    /// ([`Placer::new`]`(1)`, the default): a server runs every batch as
    /// one host fan-out, multi-device placement is a plan the GPU model
    /// prices in `shard_bench`, not a serve path, and
    /// [`Server::start_tenants`] refuses any other count. The field stays
    /// because the host benchmark builds this struct by literal and names
    /// it.
    pub placer: Placer,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            max_batch: 8,
            linger: Duration::from_micros(200),
            age_promote: None,
            workers: 1,
            executor: BatchExecutor::sequential(),
            watchdog: Duration::from_millis(5_000),
            restart_cap: 8,
            placer: Placer::new(1),
        }
    }
}

impl ServeConfig {
    /// The batch-formation policy this configuration drives.
    pub fn policy(&self) -> FormPolicy {
        let p = FormPolicy::new(self.max_batch, self.linger);
        match self.age_promote {
            Some(age) => p.with_age_promote(age),
            None => p,
        }
    }
}

/// Owned evaluation keys the workers serve with (the owned sibling of
/// [`EvalKeys`], which borrows).
#[derive(Debug, Clone, Default)]
pub struct ServeKeys {
    /// Relinearization key (for [`ServeOp::HMult`]).
    pub relin: Option<KeySwitchKey>,
    /// Rotation key set (for [`ServeOp::HRotate`]).
    pub rotations: Option<RotationKeys>,
}

impl ServeKeys {
    /// No evaluation keys (add/sub/rescale-only serving).
    pub fn none() -> Self {
        Self::default()
    }

    /// Keys for multiply-capable serving.
    pub fn with_relin(relin: KeySwitchKey) -> Self {
        Self {
            relin: Some(relin),
            rotations: None,
        }
    }

    /// Adds a rotation key set.
    #[must_use]
    pub fn and_rotations(mut self, rotations: RotationKeys) -> Self {
        self.rotations = Some(rotations);
        self
    }

    /// Borrows as the executor's key view.
    pub fn as_eval(&self) -> EvalKeys<'_> {
        EvalKeys {
            relin: self.relin.as_ref(),
            rotations: self.rotations.as_ref(),
        }
    }

    /// Resident size of this key set in bytes (the keys' 32-bit slabs) —
    /// the amount the tenant key cache charges against its budget.
    pub fn bytes(&self) -> usize {
        self.relin.as_ref().map_or(0, KeySwitchKey::bytes)
            + self.rotations.as_ref().map_or(0, RotationKeys::bytes)
    }

    /// 64-bit checksum ([`wd_fault::integrity`]) over every limb word of
    /// this key set, in a fixed traversal order. Presence markers, digit
    /// counts, limb counts and per-limb lengths are folded in, so
    /// structurally different key sets (`None` vs empty, truncated limbs)
    /// cannot collide by concatenation. This is the integrity reference
    /// the tenant key cache records at registration and verifies on every
    /// cache fill and on every lease that reads the keys
    /// ([`crate::tenant::TenantRegistry`]).
    pub fn checksum(&self) -> u64 {
        let mut h = Fnv64::new();
        match &self.relin {
            None => h.write_u64(0),
            Some(k) => {
                h.write_u64(1);
                fold_ksk(&mut h, k);
            }
        }
        match &self.rotations {
            None => h.write_u64(0),
            Some(r) => {
                h.write_u64(1);
                let elements = r.elements();
                h.write_u64(elements.len() as u64);
                for g in elements {
                    h.write_u64(g as u64);
                    if let Some(k) = r.get(g) {
                        fold_ksk(&mut h, k);
                    }
                }
            }
        }
        h.finish()
    }
}

/// Folds one keyswitch key into the checksum stream: digit count, then each
/// digit's `b` and `a` components in order.
fn fold_ksk(h: &mut Fnv64, key: &KeySwitchKey) {
    h.write_u64(key.digits.len() as u64);
    for d in &key.digits {
        fold_slab(h, &d.b);
        fold_slab(h, &d.a);
    }
}

/// Folds one key component: limb count, then the whole 32-bit slab in
/// place as its little-endian byte image (which folds its length after its
/// words).
fn fold_slab(h: &mut Fnv64, p: &KeyPoly) {
    h.write_u64(p.limb_count() as u64);
    h.write_u32s(p.words());
}

/// Lifetime counters, returned by [`Server::shutdown`] and
/// [`Server::stats`]. `submitted = rejected + shed + completed` once the
/// server has drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Submits rejected by admission control ([`WdError::QueueFull`]).
    pub rejected: u64,
    /// Requests shed in-queue past their deadline.
    pub shed: u64,
    /// Requests answered with an execution result (ok or error).
    pub completed: u64,
    /// Batches executed.
    pub batches: u64,
}

#[derive(Debug, Default)]
struct Stats {
    submitted: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    batches: AtomicU64,
}

impl Stats {
    fn snapshot(&self) -> ServeStats {
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
        }
    }
}

/// One admitted request waiting in the inbox.
#[derive(Debug)]
struct Slot {
    meta: Pending,
    tenant: Arc<Tenant>,
    op: ServeOp,
    tx: mpsc::Sender<Response>,
    /// One-shot answer flag. Whoever wins the flip owns the response *and*
    /// the completed/shed accounting, so a batch re-queued after a worker
    /// wedge answers each request exactly once even if both executions
    /// finish.
    answered: AtomicBool,
}

impl Slot {
    /// Claims the right to answer this request. `false` means another
    /// execution of the batch (the original or a replay) already did.
    fn claim(&self) -> bool {
        self.answered
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// One formed batch, taken by the worker that formed it.
///
/// A batch is shared, never copied: the worker executing it and its
/// supervision slot hold the same `Arc`, and the watchdog re-queues that
/// `Arc` when it declares the worker wedged. Re-executing it is safe
/// because every op is a pure function of its operands (bit-identical
/// results) and the slots' `answered` flags make each answer exactly-once.
#[derive(Debug)]
struct Formed {
    slots: Vec<Slot>,
    trigger: FlushTrigger,
}

#[derive(Debug, Default)]
struct InboxState {
    pending: Vec<Slot>,
    /// Batches the watchdog took back from wedged workers; a free worker
    /// runs these before forming a new batch.
    requeued: VecDeque<Arc<Formed>>,
    next_seq: u64,
    /// Live [`Hold`]s; while any is, a free worker does not flush on idle.
    holds: usize,
    draining: bool,
}

#[derive(Debug, Default)]
struct Inbox {
    state: Mutex<InboxState>,
    /// Free workers wait here for a submit, a hold release, a re-queue, a
    /// linger or deadline expiry, or the drain.
    cond: Condvar,
}

/// Answers and removes every pending request past its deadline: expired
/// work must not take a batch slot from live work.
fn shed_expired(pending: &mut Vec<Slot>, policy: &FormPolicy, now: u64, stats: &Stats) {
    let metas: Vec<Pending> = pending.iter().map(|s| s.meta).collect();
    let expired = policy.shed(now, &metas);
    if expired.is_empty() {
        return;
    }
    for &i in expired.iter().rev() {
        let slot = pending.remove(i);
        let waited = now.saturating_sub(slot.meta.enqueued_us);
        if !slot.claim() {
            continue; // a replay already answered this request
        }
        stats.shed.fetch_add(1, Ordering::Relaxed);
        slot.tenant.note_shed(now);
        wd_trace::counter("serve.shed", 1);
        wd_trace::event(
            "serve",
            "shed",
            &[
                ("seq", slot.meta.seq.to_string()),
                ("tenant", slot.tenant.id().to_string()),
                ("waited_us", waited.to_string()),
            ],
        );
        let _ = slot.tx.send(Response {
            id: slot.meta.seq,
            result: Err(WdError::DeadlineExceeded { waited_us: waited }),
            waited_us: waited,
            batch_size: 0,
            trigger: None,
        });
    }
    wd_trace::gauge("serve.queue_depth", pending.len() as u64);
}

/// A drill hold from [`Server::hold`]: while it lives no free worker
/// flushes on idle. Dropping it releases the hold and wakes the workers.
#[derive(Debug)]
#[must_use = "the hold ends when this value is dropped"]
pub struct Hold<'a> {
    inbox: &'a Inbox,
}

impl Drop for Hold<'_> {
    fn drop(&mut self) {
        recover(self.inbox.state.lock()).holds -= 1;
        self.inbox.cond.notify_all();
    }
}

/// The serving threads, joined exactly once at drain time. The `workers`
/// vector always holds the *current* generation's handle per worker slot;
/// a replaced (wedged) thread's handle is dropped — detached — because a
/// genuinely stuck thread cannot be joined.
#[derive(Debug, Default)]
struct Threads {
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

/// Supervision state for one worker slot, all under one mutex so the
/// watchdog's wedge declaration (bump generation + take in-flight batch)
/// is atomic against the worker's begin/end-of-batch bookkeeping.
#[derive(Debug, Default)]
struct SlotState {
    busy: bool,
    heartbeat_us: u64,
    /// Bumped by the watchdog when it declares this slot wedged. A worker
    /// whose spawn generation no longer matches is *stale*: its batch
    /// belongs to the replacement, and it exits at its next bookkeeping
    /// point.
    generation: u64,
    /// The batch the current worker is executing, for the watchdog to
    /// re-queue.
    inflight: Option<Arc<Formed>>,
}

/// Shared worker-supervision state (the watchdog's view of the pool).
#[derive(Debug)]
struct Supervision {
    slots: Vec<Mutex<SlotState>>,
    /// Workers declared wedged and replaced (`fault.worker_restarts`).
    restarts: AtomicU64,
    /// Restart storm hit `restart_cap`: replacements run sequentially.
    degraded: AtomicBool,
    /// Forced-wedge drill arm: the next N batch takes park their worker
    /// (no heartbeat) until released or declared wedged.
    wedge_arm: AtomicU64,
    /// Releases drill-parked workers (set at drain so forced wedges can
    /// never lose requests even with the watchdog disabled).
    release: AtomicBool,
    /// Stops the watchdog loop.
    stop: AtomicBool,
}

impl Supervision {
    fn new(worker_count: usize) -> Self {
        Self {
            slots: (0..worker_count).map(|_| Mutex::default()).collect(),
            restarts: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            wedge_arm: AtomicU64::new(0),
            release: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        }
    }
}

/// Everything the worker and watchdog threads share with the server.
#[derive(Debug)]
struct Shared {
    inbox: Inbox,
    tenants: TenantRegistry,
    policy: FormPolicy,
    epoch: Instant,
    stats: Stats,
    sup: Supervision,
}

impl Shared {
    /// Blocks until the calling worker has a batch to run: a re-queued
    /// batch first, else one the policy forms from the pending requests
    /// after shedding the expired ones. `None` once the server is draining
    /// and nothing is left.
    fn next_batch(&self) -> Option<Arc<Formed>> {
        let (inbox, policy) = (&self.inbox, &self.policy);
        let mut st = recover(inbox.state.lock());
        loop {
            if let Some(formed) = st.requeued.pop_front() {
                return Some(formed);
            }
            let now = instant_us(self.epoch);
            shed_expired(&mut st.pending, policy, now, &self.stats);
            let metas: Vec<Pending> = st.pending.iter().map(|s| s.meta).collect();
            match policy.decide(now, &metas, st.draining, st.holds == 0) {
                Decision::Flush { take, trigger } => {
                    // Pull the taken slots out in serving order; everything
                    // else keeps its queue position.
                    let mut opts: Vec<Option<Slot>> = st.pending.drain(..).map(Some).collect();
                    let slots: Vec<Slot> = take
                        .iter()
                        .map(|&i| opts[i].take().expect("decide returned a duplicate index"))
                        .collect();
                    st.pending.extend(opts.into_iter().flatten());
                    wd_trace::gauge("serve.queue_depth", st.pending.len() as u64);
                    let left = !st.pending.is_empty();
                    drop(st);
                    if left {
                        // The rest is for the next free worker.
                        inbox.cond.notify_one();
                    }
                    return Some(Arc::new(Formed { slots, trigger }));
                }
                Decision::Wait { wake_us: None } if st.draining => return None,
                Decision::Wait { wake_us: None } => st = recover(inbox.cond.wait(st)),
                Decision::Wait {
                    wake_us: Some(wake),
                } => {
                    let dur = Duration::from_micros(wake.saturating_sub(instant_us(self.epoch)));
                    st = recover(inbox.cond.wait_timeout(st, dur)).0;
                }
            }
        }
    }
}

/// The serving engine (see the module docs for the thread layout).
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    capacity: usize,
    threads: Arc<Mutex<Threads>>,
}

impl Server {
    /// Starts a **single-tenant** server: `keys` are registered under
    /// [`DEFAULT_TENANT`] and [`Server::submit`] routes to it. The
    /// multi-tenant entry point is [`Server::start_tenants`].
    pub fn start(ctx: Arc<CkksContext>, keys: ServeKeys, config: ServeConfig) -> Self {
        Self::start_tenants(TenantRegistry::single(ctx, keys), config)
    }

    /// Starts the worker threads (and the watchdog, unless
    /// `config.watchdog` is zero) over a tenant registry and begins
    /// accepting submissions ([`Server::submit_as`]).
    ///
    /// # Panics
    ///
    /// If `config.placer` models more than one device: multi-device
    /// placement is priced by the GPU model in `shard_bench`, not served.
    pub fn start_tenants(tenants: TenantRegistry, config: ServeConfig) -> Self {
        assert_eq!(
            config.placer.devices(),
            1,
            "a server runs one device; multi-device placement is modeled in shard_bench, \
             not served"
        );
        let worker_count = config.workers.max(1);
        let shared = Arc::new(Shared {
            inbox: Inbox::default(),
            tenants,
            policy: config.policy(),
            epoch: Instant::now(),
            stats: Stats::default(),
            sup: Supervision::new(worker_count),
        });
        let executor = config.executor;
        let workers = (0..worker_count)
            .map(|i| spawn_worker(&shared, executor.clone(), i, 0))
            .collect();
        let threads = Arc::new(Mutex::new(Threads {
            workers,
            watchdog: None,
        }));

        if !config.watchdog.is_zero() {
            let shared = Arc::clone(&shared);
            let th = Arc::clone(&threads);
            let timeout = config.watchdog;
            let restart_cap = config.restart_cap.max(1);
            let handle = std::thread::Builder::new()
                .name("wd-serve-watchdog".into())
                .spawn(move || watchdog_loop(&shared, &th, &executor, timeout, restart_cap))
                .expect("spawn wd-serve watchdog");
            recover(threads.lock()).watchdog = Some(handle);
        }

        Self {
            shared,
            capacity: config.queue_capacity.max(1),
            threads,
        }
    }

    /// Microseconds since this server's epoch — the clock every queue
    /// timestamp lives on.
    fn now_us(&self) -> u64 {
        instant_us(self.shared.epoch)
    }

    /// Submits one request as [`DEFAULT_TENANT`]. Returns a [`Ticket`]
    /// redeemable for exactly one [`Response`].
    ///
    /// # Errors
    ///
    /// [`WdError::QueueFull`] when the bounded queue is at capacity (the
    /// backpressure signal: resubmit later), [`WdError::InvalidParams`]
    /// after shutdown has begun, [`WdError::UnknownTenant`] on a server
    /// started via [`Server::start_tenants`] without a `"default"` tenant.
    pub fn submit(&self, req: Request) -> Result<Ticket, WdError> {
        self.submit_as(DEFAULT_TENANT, req)
    }

    /// Submits one request on behalf of `tenant`.
    ///
    /// # Errors
    ///
    /// All of [`Server::submit`]'s errors, plus
    /// [`WdError::UnknownTenant`] for an unregistered tenant,
    /// [`WdError::TenantCircuitOpen`] when the tenant's circuit breaker is
    /// refusing (checked first: the breaker exists precisely to fail
    /// faster than any queue accounting), and
    /// [`WdError::TenantQuotaExceeded`] when the tenant's in-flight quota
    /// is exhausted (checked before global capacity: the more specific
    /// backpressure signal wins).
    pub fn submit_as(&self, tenant: &str, req: Request) -> Result<Ticket, WdError> {
        let tenant = self
            .shared
            .tenants
            .lookup(tenant)
            .ok_or_else(|| WdError::UnknownTenant(tenant.to_string()))?;
        // Requests are validated at the door: a program's arity/level/scale
        // mismatches and multi-output programs, and a plain op's operand
        // off the tenant's chain, are caller errors, rejected typed before
        // they cost a queue slot.
        match &req.op {
            ServeOp::Program(prog, inputs) => {
                if prog.output_count() != 1 {
                    return Err(WdError::InvalidParams(format!(
                        "serve: program declares {} outputs; serving requires exactly 1",
                        prog.output_count()
                    )));
                }
                prog.check_inputs(inputs)?;
            }
            ServeOp::HAdd(a, b) | ServeOp::HSub(a, b) | ServeOp::HMult(a, b) => {
                tenant.ctx().check_ciphertext(a)?;
                tenant.ctx().check_ciphertext(b)?;
            }
            ServeOp::HRotate(ct, _) | ServeOp::Rescale(ct) => tenant.ctx().check_ciphertext(ct)?,
        }
        let now_us = self.now_us();
        if let Err(retry_after_us) = tenant.breaker_admit(now_us) {
            self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            wd_trace::counter("serve.rejected", 1);
            return Err(WdError::TenantCircuitOpen {
                tenant: tenant.id().to_string(),
                retry_after_us,
            });
        }
        let quota = self.shared.tenants.config().quota;
        let mut st = recover(self.shared.inbox.state.lock());
        if st.draining {
            return Err(WdError::InvalidParams(
                "serve: submit after shutdown began".into(),
            ));
        }
        // Tenant quota first, then global capacity — all accounting happens
        // under the inbox lock, so the checks are race-free.
        let in_flight = tenant.in_flight();
        if in_flight >= quota {
            self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            tenant.note_rejected();
            wd_trace::counter("serve.rejected", 1);
            return Err(WdError::TenantQuotaExceeded {
                tenant: tenant.id().to_string(),
                in_flight,
                quota,
            });
        }
        if st.pending.len() >= self.capacity {
            self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            tenant.note_rejected();
            wd_trace::counter("serve.rejected", 1);
            return Err(WdError::QueueFull {
                depth: st.pending.len(),
                capacity: self.capacity,
            });
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        let deadline_us = req.deadline.map(|d| now_us.saturating_add(duration_us(d)));
        let (tx, rx) = mpsc::channel();
        tenant.note_enqueued();
        st.pending.push(Slot {
            meta: Pending {
                seq,
                class: req.class,
                enqueued_us: now_us,
                deadline_us,
            },
            tenant: Arc::clone(tenant),
            op: req.op,
            tx,
            answered: AtomicBool::new(false),
        });
        self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        wd_trace::counter("serve.enqueued", 1);
        wd_trace::gauge("serve.queue_depth", st.pending.len() as u64);
        drop(st);
        self.shared.inbox.cond.notify_one();
        Ok(Ticket { id: seq, rx })
    }

    /// Current queue depth (pending, not yet batched).
    pub fn queue_depth(&self) -> usize {
        recover(self.shared.inbox.state.lock()).pending.len()
    }

    /// A snapshot of the lifetime counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats.snapshot()
    }

    /// A snapshot of one tenant's lifetime counters (`None` for an
    /// unregistered tenant). After a drain, every tenant satisfies
    /// `enqueued = completed + shed` and `in_flight = 0`.
    pub fn tenant_stats(&self, tenant: &str) -> Option<TenantStats> {
        self.shared.tenants.lookup(tenant).map(|t| t.stats())
    }

    /// The tenant registry this server routes through (for cache
    /// statistics and tenant enumeration).
    pub fn tenants(&self) -> &TenantRegistry {
        &self.shared.tenants
    }

    /// Arms the next `n` batch takes to wedge their worker (the supervision
    /// drill): the worker parks without heartbeating until the watchdog
    /// declares it wedged (re-queue + respawn) or the drain releases it.
    /// Either way every request is still answered exactly once.
    pub fn arm_wedge(&self, n: u64) {
        self.shared.sup.wedge_arm.fetch_add(n, Ordering::Relaxed);
    }

    /// Suppresses the idle trigger while the returned [`Hold`] lives — a
    /// drill arm like [`Server::arm_wedge`]. A free worker takes every
    /// pending request at once, so a drill that needs requests to stay
    /// queued (a full size batch, a quota held in flight, a drain-time
    /// flush) takes a hold and puts `max_batch` or `linger` out of reach.
    /// Size, linger and drain fire exactly as without it.
    pub fn hold(&self) -> Hold<'_> {
        recover(self.shared.inbox.state.lock()).holds += 1;
        Hold {
            inbox: &self.shared.inbox,
        }
    }

    /// Workers declared wedged and replaced so far.
    pub fn worker_restarts(&self) -> u64 {
        self.shared.sup.restarts.load(Ordering::Relaxed)
    }

    /// Whether a restart storm degraded replacement workers to sequential
    /// execution.
    pub fn degraded(&self) -> bool {
        self.shared.sup.degraded.load(Ordering::Relaxed)
    }

    /// A live health snapshot: queue depth, worker liveness, key-cache
    /// residency, per-tenant breaker states — the payload the v3 HEALTH
    /// wire frame carries.
    pub fn health(&self) -> HealthReport {
        let cache = self.shared.tenants.cache_stats();
        let tenants = self
            .shared
            .tenants
            .tenant_ids()
            .into_iter()
            .map(|id| {
                let t = self.shared.tenants.lookup(&id).expect("enumerated tenant");
                TenantHealth {
                    breaker: t.breaker_state().map(|s| s.label().to_string()),
                    in_flight: t.in_flight() as u64,
                    id,
                }
            })
            .collect();
        HealthReport {
            queue_depth: self.queue_depth() as u64,
            workers: self.shared.sup.slots.len() as u32,
            worker_restarts: self.worker_restarts(),
            degraded: self.degraded(),
            keycache_resident_bytes: cache.resident_bytes as u64,
            keycache_budget_bytes: cache.budget_bytes as u64,
            keycache_quarantined: cache.quarantined,
            tenants,
        }
    }

    /// Drains and stops the server: rejects new submissions, flushes every
    /// queued request (in `max_batch` chunks), waits for the workers to
    /// answer them all, and returns the final counters. Zero requests are
    /// lost: `submitted = shed + completed` on return.
    pub fn shutdown(self) -> ServeStats {
        self.drain()
    }

    /// [`Server::shutdown`] through a shared reference — the spelling the
    /// network front-end uses, where the server lives in an [`Arc`] shared
    /// with connection handlers. Idempotent: later calls (and the eventual
    /// drop) just return the final counters.
    pub fn drain(&self) -> ServeStats {
        // Stop supervision first: release any drill-parked workers (so
        // forced wedges execute and answer even with the watchdog off) and
        // join the watchdog before `draining` is set, so no batch can be
        // re-queued after a worker has exited. The lock is dropped across
        // each join so an in-flight respawn can still swap its handle in.
        let shared = &self.shared;
        shared.sup.release.store(true, Ordering::Relaxed);
        shared.sup.stop.store(true, Ordering::Relaxed);
        let watchdog = recover(self.threads.lock()).watchdog.take();
        if let Some(h) = watchdog {
            let _ = h.join();
        }
        recover(shared.inbox.state.lock()).draining = true;
        shared.inbox.cond.notify_all();
        let workers: Vec<_> = recover(self.threads.lock()).workers.drain(..).collect();
        for h in workers {
            let _ = h.join();
        }
        shared.stats.snapshot()
    }
}

impl Drop for Server {
    /// Best-effort drain: dropping without [`Server::shutdown`] still
    /// answers every accepted request before the threads exit.
    fn drop(&mut self) {
        self.drain();
    }
}

fn instant_us(epoch: Instant) -> u64 {
    epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

fn duration_us(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// Spawns one worker thread for `slot` at `generation` (0 at startup;
/// bumped values come from watchdog respawns).
fn spawn_worker(
    shared: &Arc<Shared>,
    executor: BatchExecutor,
    slot: usize,
    generation: u64,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("wd-serve-worker-{slot}-g{generation}"))
        .spawn(move || worker_loop(&shared, &executor, slot, generation))
        .expect("spawn wd-serve worker")
}

/// A worker thread: form a batch, execute it, repeat until drained.
///
/// A formed batch may mix tenants; the worker partitions it into per-tenant
/// groups (stable first-seen order), leases each tenant's keys through the
/// registry's resident cache, and executes each group under that tenant's
/// context. Partitioning only changes *which launch* an op shares, never
/// its operands — responses stay bit-identical to a sequential per-tenant
/// run.
///
/// Supervision protocol: the worker registers every batch in its slot
/// (busy + heartbeat + a handle on the batch) and checks its spawn
/// `generation` at each bookkeeping point. A mismatch means the watchdog
/// declared this thread wedged, re-queued its batch and replaced it: the
/// stale worker skips the batch if it has not started it and exits.
fn worker_loop(shared: &Shared, executor: &BatchExecutor, idx: usize, my_gen: u64) {
    let sup = &shared.sup;
    // This worker's scratch arena, owned for the thread's whole lifetime so
    // shelves warmed by one batch serve every later batch (steady-state
    // zero hot-path heap allocations). Never shared: a watchdog replacement
    // thread builds its own. Per batch the worker publishes how many leases
    // overflowed the arena (`serve.arena.fallback`) — a rising value means
    // the arena is undersized for the traffic's parameter sets.
    let arena = wd_polyring::scratch::ScratchArena::for_worker();
    while let Some(formed) = shared.next_batch() {
        // Register the take. The slot is not busy, so the watchdog cannot
        // have replaced this thread since its last bookkeeping.
        {
            let mut st = recover(sup.slots[idx].lock());
            st.busy = true;
            st.heartbeat_us = instant_us(shared.epoch);
            st.inflight = Some(Arc::clone(&formed));
        }
        // Forced-wedge drill: park without heartbeating until the watchdog
        // declares us wedged (generation bump) or the drain releases us.
        if sup
            .wedge_arm
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
            .is_ok()
        {
            wd_trace::counter("serve.guard.wedge_injected", 1);
            wd_trace::event("serve.guard", "wedge", &[("worker", idx.to_string())]);
            while !sup.release.load(Ordering::Relaxed)
                && recover(sup.slots[idx].lock()).generation == my_gen
            {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let abandoned = recover(sup.slots[idx].lock()).generation != my_gen;
        if !abandoned {
            let fallbacks_before = arena.stats().fallbacks;
            wd_polyring::scratch::with_worker_arena(&arena, || {
                execute_batch(&formed, shared, executor);
            });
            wd_trace::counter(
                "serve.arena.fallback",
                arena.stats().fallbacks - fallbacks_before,
            );
        }
        // End-of-batch bookkeeping; a stale worker exits here.
        {
            let mut st = recover(sup.slots[idx].lock());
            if st.generation != my_gen {
                return;
            }
            st.inflight = None;
            st.busy = false;
        }
    }
}

/// Executes one formed batch and answers every slot that has not already
/// been answered by a replay. How a group of ops runs — the thread split,
/// the per-op recovery envelope — is the executor's business alone.
fn execute_batch(formed: &Formed, shared: &Shared, executor: &BatchExecutor) {
    let Formed { slots, trigger } = formed;
    let (n, trigger) = (slots.len(), *trigger);
    let _span = wd_trace::span("serve", "batch");
    wd_trace::counter("serve.batches", 1);
    wd_trace::observe("serve.batch_size", n as u64);
    wd_trace::event(
        "serve",
        "batch",
        &[
            ("size", n.to_string()),
            ("trigger", trigger.label().to_string()),
        ],
    );
    // Partition by tenant, preserving first-seen order within and
    // across groups (serving order inside a group is queue order).
    let mut groups: Vec<(Arc<Tenant>, Vec<&Slot>)> = Vec::new();
    for slot in slots {
        match groups
            .iter_mut()
            .find(|(t, _)| Arc::ptr_eq(t, &slot.tenant))
        {
            Some((_, group)) => group.push(slot),
            None => groups.push((Arc::clone(&slot.tenant), vec![slot])),
        }
    }
    shared.stats.batches.fetch_add(1, Ordering::Relaxed);
    for (tenant, group) in groups {
        // Every group leases (the cache's hit/miss/eviction books count
        // batches, not key reads), but only a group that reads a key
        // verifies the resident copy.
        let reads_keys = group.iter().any(|s| s.op.reads_keys());
        let keys = match shared.tenants.lease_keys(&tenant, reads_keys) {
            Ok(keys) => keys,
            Err(e) => {
                // An unrecoverable key-integrity failure answers every
                // request in the group with the typed error — admitted
                // requests still complete, corrupt bytes are never served.
                let results = group.iter().map(|_| Err(e.clone())).collect();
                answer_group(group, results, &tenant, shared, n, trigger);
                continue;
            }
        };
        // Partition the tenant's group: plain ops batch directly; program
        // requests merge wave-by-wave across every program in the group.
        let (programs, plain): (Vec<&Slot>, Vec<&Slot>) = group
            .into_iter()
            .partition(|s| matches!(s.op, ServeOp::Program(..)));

        if !plain.is_empty() {
            let ops: Vec<BatchOp<'_>> = plain.iter().map(|s| s.op.as_batch_op()).collect();
            let results = executor.execute(tenant.ctx(), keys.as_eval(), &ops);
            drop(ops);
            answer_group(plain, results, &tenant, shared, n, trigger);
        }

        if !programs.is_empty() {
            // Heterogeneous wave merging: round `w` runs wave `w` of every
            // program in the group as one executor batch.
            let jobs: Vec<(&CompiledProgram, &[Ciphertext])> = programs
                .iter()
                .map(|s| match &s.op {
                    ServeOp::Program(p, inputs) => (p.as_ref(), inputs.as_slice()),
                    _ => unreachable!("partitioned above"),
                })
                .collect();
            wd_trace::counter("serve.programs", jobs.len() as u64);
            let results = wd_graph::execute_many(tenant.ctx(), keys.as_eval(), &jobs, executor);
            drop(jobs);
            let results = results
                .into_iter()
                .map(|r| r.map(|mut outs| outs.pop().expect("single output enforced at submit")))
                .collect();
            answer_group(programs, results, &tenant, shared, n, trigger);
        }
    }
}

/// Answers every slot in a served group that has not already been answered
/// by a replay, with the group's per-request results in queue order.
fn answer_group(
    slots: Vec<&Slot>,
    results: Vec<Result<Ciphertext, WdError>>,
    tenant: &Tenant,
    shared: &Shared,
    batch_size: usize,
    trigger: FlushTrigger,
) {
    let now = instant_us(shared.epoch);
    for (slot, result) in slots.into_iter().zip(results) {
        let waited = now.saturating_sub(slot.meta.enqueued_us);
        if !slot.claim() {
            continue; // the original or a replay already answered
        }
        shared.stats.completed.fetch_add(1, Ordering::Relaxed);
        tenant.note_completed(waited, now, result.is_ok());
        wd_trace::counter("serve.completed", 1);
        wd_trace::observe("serve.latency_us", waited);
        let _ = slot.tx.send(Response {
            id: slot.meta.seq,
            result,
            waited_us: waited,
            batch_size,
            trigger: Some(trigger),
        });
    }
}

/// The watchdog thread: periodically scans every worker slot; a worker
/// that has held one batch past `timeout` is declared wedged — its batch
/// is re-queued at the front of the inbox (it has waited longest), its
/// generation is bumped (the stale thread exits at its next bookkeeping
/// point; a genuinely stuck thread is detached, which is the only honest
/// option), and a replacement is spawned into the same slot. Past `restart_cap`
/// restarts the pool degrades: replacements run the sequential executor,
/// trading throughput for survival.
fn watchdog_loop(
    shared: &Arc<Shared>,
    threads: &Mutex<Threads>,
    executor: &BatchExecutor,
    timeout: Duration,
    restart_cap: usize,
) {
    let sup = &shared.sup;
    let timeout_us = duration_us(timeout).max(1);
    let tick = Duration::from_micros((timeout_us / 4).clamp(5_000, 50_000));
    while !sup.stop.load(Ordering::Relaxed) {
        std::thread::sleep(tick);
        for idx in 0..sup.slots.len() {
            if sup.stop.load(Ordering::Relaxed) {
                break;
            }
            let now = instant_us(shared.epoch);
            let (batch, new_gen) = {
                let mut st = recover(sup.slots[idx].lock());
                if !st.busy || now.saturating_sub(st.heartbeat_us) <= timeout_us {
                    continue;
                }
                st.generation += 1;
                st.busy = false;
                (st.inflight.take(), st.generation)
            };
            let restarts = sup.restarts.fetch_add(1, Ordering::Relaxed) + 1;
            wd_trace::counter("fault.worker_restarts", 1);
            wd_trace::counter("serve.guard.wedged", 1);
            wd_trace::warn(
                "serve.guard",
                &format!(
                    "worker {idx} wedged past {} ms; re-queuing its batch and respawning",
                    timeout.as_millis()
                ),
            );
            wd_trace::event(
                "serve.guard",
                "worker.wedged",
                &[
                    ("worker", idx.to_string()),
                    ("restarts", restarts.to_string()),
                ],
            );
            if let Some(batch) = batch {
                wd_trace::counter("serve.guard.requeued", batch.slots.len() as u64);
                recover(shared.inbox.state.lock())
                    .requeued
                    .push_front(batch);
                shared.inbox.cond.notify_one();
            }
            if restarts as usize >= restart_cap && !sup.degraded.swap(true, Ordering::Relaxed) {
                wd_trace::counter("serve.guard.degraded", 1);
                wd_trace::warn(
                    "serve.guard",
                    &format!(
                        "restart storm: {restarts} worker restarts reached the cap \
                         ({restart_cap}); degrading replacements to sequential execution"
                    ),
                );
            }
            // Budget 1 is the sequential executor; `with_budget` keeps this
            // one's fault plan, retry policy and arena pool.
            let replacement = if sup.degraded.load(Ordering::Relaxed) {
                executor.clone().with_budget(1)
            } else {
                executor.clone()
            };
            let handle = spawn_worker(shared, replacement, idx, new_gen);
            recover(threads.lock()).workers[idx] = handle;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wd_ckks::ParamSet;

    fn small_ctx(seed: u64) -> Arc<CkksContext> {
        let params = ParamSet::set_a()
            .with_degree(1 << 6)
            .build()
            .expect("params");
        Arc::new(CkksContext::with_seed(params, seed).expect("ctx"))
    }

    #[test]
    fn serves_a_round_trip() -> Result<(), WdError> {
        let ctx = small_ctx(11);
        let kp = ctx.keygen();
        let server = Server::start(
            Arc::clone(&ctx),
            ServeKeys::with_relin(kp.relin.clone()),
            ServeConfig::default(),
        );
        let a = ctx.encrypt_values(&[1.5, -2.0], &kp.public)?;
        let b = ctx.encrypt_values(&[0.5, 1.0], &kp.public)?;
        let expect = wd_ckks::ops::hadd(&a, &b)?;
        let ticket = server.submit(Request::new(ServeOp::HAdd(a, b)))?;
        let resp = ticket.wait();
        assert_eq!(resp.result.as_ref(), Ok(&expect), "bit-identical response");
        assert!(resp.batch_size >= 1);
        assert!(resp.trigger.is_some());
        let stats = server.shutdown();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.shed, 0);
        Ok(())
    }

    #[test]
    fn full_queue_rejects_with_typed_backpressure() -> Result<(), WdError> {
        let ctx = small_ctx(12);
        let kp = ctx.keygen();
        // A hold, a huge linger and a huge batch: nothing flushes while we
        // overfill.
        let config = ServeConfig {
            queue_capacity: 2,
            max_batch: 64,
            linger: Duration::from_secs(5),
            ..ServeConfig::default()
        };
        let server = Server::start(Arc::clone(&ctx), ServeKeys::none(), config);
        let hold = server.hold();
        let ct = ctx.encrypt_values(&[1.0], &kp.public)?;
        let t1 = server.submit(Request::new(ServeOp::Rescale(ct.clone())))?;
        let t2 = server.submit(Request::new(ServeOp::Rescale(ct.clone())))?;
        let err = server
            .submit(Request::new(ServeOp::Rescale(ct)))
            .expect_err("third submit must be rejected");
        assert_eq!(
            err,
            WdError::QueueFull {
                depth: 2,
                capacity: 2
            }
        );
        let stats = server.drain();
        drop(hold);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.completed, 2);
        // Drain still answered the two accepted requests.
        assert!(t1.wait().result.is_ok());
        assert!(t2.wait().result.is_ok());
        Ok(())
    }

    #[test]
    fn zero_deadline_requests_are_shed_not_executed() -> Result<(), WdError> {
        let ctx = small_ctx(13);
        let kp = ctx.keygen();
        let server = Server::start(Arc::clone(&ctx), ServeKeys::none(), ServeConfig::default());
        let ct = ctx.encrypt_values(&[1.0], &kp.public)?;
        let ticket =
            server.submit(Request::new(ServeOp::Rescale(ct)).with_deadline(Duration::ZERO))?;
        let resp = ticket.wait();
        assert!(
            matches!(resp.result, Err(WdError::DeadlineExceeded { .. })),
            "{:?}",
            resp.result
        );
        assert_eq!(resp.batch_size, 0);
        assert_eq!(resp.trigger, None);
        let stats = server.shutdown();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.completed, 0);
        Ok(())
    }

    /// A request whose deadline passes while every worker is busy is shed
    /// when a worker comes back for it, not run from a batch formed while
    /// it waited.
    #[test]
    fn a_request_that_expires_behind_a_busy_worker_is_shed() -> Result<(), WdError> {
        let ctx = small_ctx(20);
        let kp = ctx.keygen();
        let config = ServeConfig {
            workers: 1,
            linger: Duration::from_millis(1),
            watchdog: Duration::ZERO,
            ..ServeConfig::default()
        };
        let server = Server::start(Arc::clone(&ctx), ServeKeys::none(), config);
        server.arm_wedge(1);
        let ct = ctx.encrypt_values(&[1.0], &kp.public)?;
        let a = server.submit(Request::new(ServeOp::Rescale(ct.clone())))?;
        // The one worker takes A and parks on it until the drain.
        while server.queue_depth() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let b = server
            .submit(Request::new(ServeOp::Rescale(ct)).with_deadline(Duration::from_millis(20)))?;
        std::thread::sleep(Duration::from_millis(50));
        let stats = server.drain();
        assert!(a.wait().result.is_ok());
        let b = b.wait();
        assert!(
            matches!(b.result, Err(WdError::DeadlineExceeded { .. })),
            "{:?}",
            b.result
        );
        assert_eq!((stats.completed, stats.shed), (1, 1));
        Ok(())
    }

    #[test]
    fn submit_after_shutdown_began_is_rejected() -> Result<(), WdError> {
        let ctx = small_ctx(14);
        let kp = ctx.keygen();
        let server = Server::start(Arc::clone(&ctx), ServeKeys::none(), ServeConfig::default());
        let ct = ctx.encrypt_values(&[1.0], &kp.public)?;
        {
            let mut st = server.shared.inbox.state.lock().expect("inbox");
            st.draining = true;
        }
        assert!(matches!(
            server.submit(Request::new(ServeOp::Rescale(ct))),
            Err(WdError::InvalidParams(_))
        ));
        server.shutdown();
        Ok(())
    }

    #[test]
    fn missing_relin_key_surfaces_per_request_not_as_a_crash() -> Result<(), WdError> {
        let ctx = small_ctx(15);
        let kp = ctx.keygen();
        let server = Server::start(Arc::clone(&ctx), ServeKeys::none(), ServeConfig::default());
        let a = ctx.encrypt_values(&[2.0], &kp.public)?;
        let t = server.submit(Request::new(ServeOp::HMult(a.clone(), a)))?;
        let resp = t.wait();
        assert!(matches!(resp.result, Err(WdError::MissingKey(_))));
        let stats = server.shutdown();
        assert_eq!(stats.completed, 1, "an error response still completes");
        Ok(())
    }

    #[test]
    fn keyless_batches_leave_an_armed_corruption_for_the_next_hmult() -> Result<(), WdError> {
        let ctx = small_ctx(19);
        let kp = ctx.keygen();
        let server = Server::start(
            Arc::clone(&ctx),
            ServeKeys::with_relin(kp.relin.clone()),
            ServeConfig::default(),
        );
        let a = ctx.encrypt_values(&[1.5, -2.0], &kp.public)?;
        let b = ctx.encrypt_values(&[0.5, 1.0], &kp.public)?;
        let expect_mult = wd_ckks::ops::hmult(&ctx, &a, &b, &kp.relin)?;
        let expect_add = wd_ckks::ops::hadd(&a, &b)?;
        let serve = |op| server.submit(Request::new(op)).map(|t| t.wait().result);
        // One request at a time: every batch is one lease.
        assert_eq!(
            serve(ServeOp::HMult(a.clone(), b.clone()))?,
            Ok(expect_mult.clone())
        );
        server.tenants().arm_key_corruption(1);
        for _ in 0..2 {
            assert_eq!(
                serve(ServeOp::HAdd(a.clone(), b.clone()))?,
                Ok(expect_add.clone())
            );
        }
        let c = server.tenants().cache_stats();
        assert_eq!(
            (c.hits, c.misses, c.quarantined),
            (2, 1, 0),
            "keyless hits are counted but verify nothing"
        );
        wd_trace::take_warnings();
        assert_eq!(
            serve(ServeOp::HMult(a, b))?,
            Ok(expect_mult),
            "the quarantine reload serves the same bits"
        );
        let c = server.tenants().cache_stats();
        assert_eq!((c.hits, c.misses, c.quarantined), (2, 2, 1));
        server.shutdown();
        Ok(())
    }

    #[test]
    fn a_panicking_thread_does_not_kill_the_server_through_a_poisoned_mutex() -> Result<(), WdError>
    {
        /// Panics on a thread of its own while holding `m`.
        fn poison<T: Send>(m: &Mutex<T>) {
            let died = std::thread::scope(|s| {
                s.spawn(|| {
                    let _held = m.lock().unwrap_or_else(|p| p.into_inner());
                    panic!("poisoning a serve mutex on purpose");
                })
                .join()
            });
            assert!(died.is_err() && m.is_poisoned());
        }
        let ctx = small_ctx(18);
        let kp = ctx.keygen();
        let server = Server::start(Arc::clone(&ctx), ServeKeys::none(), ServeConfig::default());
        // The worker is parked on the inbox condvar and wakes up to a
        // poisoned guard; its supervision slot is poisoned before its first
        // batch.
        poison(&server.shared.inbox.state);
        poison(&server.shared.sup.slots[0]);
        let a = ctx.encrypt_values(&[1.5, -2.0], &kp.public)?;
        let b = ctx.encrypt_values(&[0.5, 1.0], &kp.public)?;
        let expect = wd_ckks::ops::hadd(&a, &b)?;
        let ticket = server.submit(Request::new(ServeOp::HAdd(a, b)))?;
        assert_eq!(ticket.wait().result.as_ref(), Ok(&expect));
        assert_eq!(server.queue_depth(), 0);
        let stats = server.drain();
        assert_eq!(stats.submitted, stats.completed + stats.shed);
        assert_eq!((stats.submitted, stats.completed), (1, 1));
        Ok(())
    }

    #[test]
    #[should_panic(expected = "multi-device placement is modeled in shard_bench")]
    fn start_refuses_more_than_one_device() {
        let ctx = small_ctx(16);
        let kp = ctx.keygen();
        let config = ServeConfig {
            placer: Placer::new(2),
            ..ServeConfig::default()
        };
        let _server = Server::start(ctx, ServeKeys::with_relin(kp.relin), config);
    }

    #[test]
    fn serves_compiled_programs_wave_merged_with_plain_ops() -> Result<(), WdError> {
        use wd_graph::{CompileOptions, Graph};
        let ctx = small_ctx(17);
        let kp = ctx.keygen();
        let rot = ctx.gen_rotation_keys(&kp.secret, &[1], false);

        // out = (x·y) + rot(x·y, 1): exercises auto relin/rescale, a
        // rotation key, and wave merging against a plain op in the same
        // formed batch.
        let mut g = Graph::new();
        let x = g.input();
        let y = g.input();
        let t = g.mul(x, y);
        let r = g.rotate(t, 1);
        let s = g.add(t, r);
        g.output(s);
        let prog = Arc::new(
            g.compile(
                ctx.params(),
                &CompileOptions::new().with_rotation_steps(&[1]),
            )
            .expect("demo program compiles"),
        );

        // A hold and a huge linger: only the size trigger flushes, so both
        // programs and the plain op share one formed batch.
        let config = ServeConfig {
            max_batch: 3,
            linger: Duration::from_secs(5),
            ..ServeConfig::default()
        };
        let server = Server::start(
            Arc::clone(&ctx),
            ServeKeys::with_relin(kp.relin.clone()).and_rotations(rot.clone()),
            config,
        );
        let a = ctx.encrypt_values(&[1.5, -2.0, 0.25], &kp.public)?;
        let b = ctx.encrypt_values(&[0.5, 1.0, -1.0], &kp.public)?;

        // Hand-sequenced expectations (same key material as the server).
        let t = wd_ckks::ops::rescale(&ctx, &wd_ckks::ops::hmult(&ctx, &a, &b, &kp.relin)?)?;
        let rr = wd_ckks::ops::hrotate(&ctx, &t, 1, &rot)?;
        let expect_prog = wd_ckks::ops::hadd(&t, &rr)?;
        let expect_add = wd_ckks::ops::hadd(&a, &b)?;

        let hold = server.hold();
        // Bad programs are rejected typed at the door, before queueing.
        let err = server
            .submit(Request::program(Arc::clone(&prog), vec![a.clone()]))
            .expect_err("wrong arity must be rejected at submit");
        assert!(matches!(
            err,
            WdError::DimensionMismatch { got: 1, want: 2 }
        ));

        let t1 = server.submit(Request::program(
            Arc::clone(&prog),
            vec![a.clone(), b.clone()],
        ))?;
        let t2 = server.submit(Request::program(
            Arc::clone(&prog),
            vec![a.clone(), b.clone()],
        ))?;
        let t3 = server.submit(Request::new(ServeOp::HAdd(a, b)))?;
        for (ticket, expect) in [(t1, &expect_prog), (t2, &expect_prog), (t3, &expect_add)] {
            let resp = ticket.wait();
            assert_eq!(resp.result.as_ref(), Ok(expect), "bit-identical response");
            assert_eq!(
                resp.batch_size, 3,
                "programs and the plain op share a batch"
            );
        }
        drop(hold);
        let stats = server.shutdown();
        assert_eq!(stats.completed, 3);
        assert_eq!(
            stats.rejected, 0,
            "door rejection is a caller error, not shed"
        );
        Ok(())
    }

    #[test]
    fn config_maps_onto_its_form_policy() {
        let d = ServeConfig::default();
        assert_eq!(d.policy().max_batch, d.max_batch);
        assert_eq!(d.policy().linger, d.linger);
        let aged = ServeConfig {
            age_promote: Some(Duration::from_micros(123)),
            ..ServeConfig::default()
        };
        assert_eq!(aged.policy().age_promote, Duration::from_micros(123));
    }
}
