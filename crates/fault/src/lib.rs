//! Workspace-wide fault model: the typed error taxonomy, deterministic
//! fault injection, and the bounded retry policy the execution layers share.
//!
//! WarpDrive's PE kernels batch a whole ciphertext — every polynomial ×
//! every RNS limb — into one launch (paper §III-C), so a single transient
//! failure poisons an entire homomorphic operation. Production GPU FHE
//! stacks treat launch failure, ECC events and level exhaustion as
//! *recoverable conditions*, not process aborts. This crate is the
//! substrate for that stance:
//!
//! - [`WdError`]: the one error type every layer speaks. Re-exported by
//!   `wd-modmath`, `wd-polyring`, `wd-ckks` (as its `CkksError`) and
//!   `warpdrive-core`.
//! - [`FaultPlan`] / [`FaultInjector`]: a seedable, deterministic source of
//!   injected faults (transient launch failure, ECC-style corrupted limb,
//!   device loss), configured via [`FAULT_SEED_ENV`] / [`FAULT_RATE_ENV`].
//!   Faults surface as [`WdError::SimFault`] — never as wrong numbers.
//! - [`RetryPolicy`]: bounded, deterministic backoff-and-retry around a
//!   fallible unit of work, with panic isolation ([`run_isolated`]) so a
//!   worker panic becomes [`WdError::WorkerPanicked`] instead of killing
//!   the process.
//! - [`integrity`]: a dependency-free 64-bit multi-lane FNV-1a checksum over
//!   limb slabs and wire frames, with the typed [`WdError::IntegrityViolation`]
//!   for a mismatch — the detection substrate of the serving layer's
//!   quarantine-and-reload path.
//!
//! The crate is dependency-free and sits below everything else in the
//! workspace so that error conversions (`From<PolyError>`,
//! `From<MathError>`) can live next to the types they convert.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use wd_trace::env;

/// Environment variable naming the fault-injection seed (`u64`, default 0).
pub const FAULT_SEED_ENV: &str = "WD_FAULT_SEED";

/// Environment variable naming the fault-injection rate (a float in
/// `[0, 1]`, e.g. `0.05`; default 0 = injection disabled).
pub const FAULT_RATE_ENV: &str = "WD_FAULT_RATE";

// ---------------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------------

/// The kind of an injected (or modeled) device fault, mirroring the failure
/// modes a real A100 deployment sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A kernel launch that failed transiently (driver hiccup, spurious
    /// `CUDA_ERROR_LAUNCH_FAILED`); relaunching the same work succeeds.
    TransientLaunch,
    /// An ECC-detected corrupted limb: the hardware flagged bad data before
    /// it was consumed, so the operation must be recomputed from its
    /// (intact) inputs.
    CorruptedLimb,
    /// The device dropped off the bus (`CUDA_ERROR_DEVICE_LOST`); only a
    /// different execution path (another device, the host) can finish the
    /// work.
    DeviceLost,
    /// A cached evaluation key failed its integrity checksum (a bit flip
    /// while resident in device memory). The authoritative cold copy is
    /// intact, so quarantining the resident copy and reloading repairs it.
    CorruptedKey,
}

impl FaultKind {
    /// Whether retrying the same work on the same path can succeed.
    /// `CorruptedKey` counts as transient because the repair — reload from
    /// the authoritative cold copy — runs on the same path.
    pub fn is_transient(self) -> bool {
        !matches!(self, FaultKind::DeviceLost)
    }
}

impl core::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FaultKind::TransientLaunch => write!(f, "transient launch failure"),
            FaultKind::CorruptedLimb => write!(f, "ECC-detected corrupted limb"),
            FaultKind::DeviceLost => write!(f, "device lost"),
            FaultKind::CorruptedKey => write!(f, "checksum-detected corrupted key"),
        }
    }
}

/// The structured payload of [`WdError::LevelMismatch`]: which operation
/// rejected its operands, plus the levels and scales it saw on each side —
/// so a compiler (wd-graph) can introspect the mismatch programmatically
/// instead of parsing display text.
///
/// Legacy call sites still build the variant from a bare message via
/// `From<String>` / `From<&str>`; those carry only `detail` and no
/// structured fields. When `detail` is set it is the `Display` output
/// verbatim, keeping every pre-existing error string stable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OperandMismatch {
    /// The operation that rejected its operands (`"hadd"`, `"hmult"`, …).
    pub op: String,
    /// Left operand's level, when the site knows it.
    pub lhs_level: Option<usize>,
    /// Right operand's level, when the site knows it.
    pub rhs_level: Option<usize>,
    /// Left operand's scale, when the site knows it.
    pub lhs_scale: Option<f64>,
    /// Right operand's scale, when the site knows it.
    pub rhs_scale: Option<f64>,
    /// Preformatted message. Non-empty ⇒ printed verbatim by `Display`
    /// (the legacy string payload); empty ⇒ `Display` renders the
    /// structured fields.
    pub detail: String,
}

impl OperandMismatch {
    /// A fully structured mismatch: `op` saw `lhs` = (level, scale) against
    /// `rhs` = (level, scale). `Display` renders the canonical
    /// `"{op}: level {l}/{r} scale {ls:.3e}/{rs:.3e}"` text.
    pub fn new(op: &str, lhs: (usize, f64), rhs: (usize, f64)) -> Self {
        Self {
            op: op.to_string(),
            lhs_level: Some(lhs.0),
            rhs_level: Some(rhs.0),
            lhs_scale: Some(lhs.1),
            rhs_scale: Some(rhs.1),
            detail: String::new(),
        }
    }

    /// A levels-only mismatch (scales unknown or irrelevant at the site).
    pub fn levels(op: &str, lhs: usize, rhs: usize) -> Self {
        Self {
            op: op.to_string(),
            lhs_level: Some(lhs),
            rhs_level: Some(rhs),
            ..Self::default()
        }
    }

    /// Overrides the rendered text while keeping the structured fields
    /// (used where a legacy message spelled the mismatch differently).
    pub fn with_detail(mut self, detail: String) -> Self {
        self.detail = detail;
        self
    }
}

impl From<String> for OperandMismatch {
    fn from(detail: String) -> Self {
        Self {
            detail,
            ..Self::default()
        }
    }
}

impl From<&str> for OperandMismatch {
    fn from(detail: &str) -> Self {
        String::from(detail).into()
    }
}

impl core::fmt::Display for OperandMismatch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if !self.detail.is_empty() {
            return write!(f, "{}", self.detail);
        }
        write!(f, "{}", self.op)?;
        if let (Some(l), Some(r)) = (self.lhs_level, self.rhs_level) {
            write!(f, ": level {l}/{r}")?;
        }
        if let (Some(ls), Some(rs)) = (self.lhs_scale, self.rhs_scale) {
            write!(f, " scale {ls:.3e}/{rs:.3e}")?;
        }
        Ok(())
    }
}

/// The workspace-wide error type.
///
/// Every public fallible API in the workspace returns this type (directly,
/// or through the `CkksError` alias in `wd-ckks`). Variants are grouped by
/// origin: parameter/shape validation, scheme-level exhaustion, wire
/// decoding, and execution faults.
#[derive(Debug, Clone, PartialEq)]
pub enum WdError {
    /// Parameter validation failed (bad degree, exhausted prime pool, …).
    InvalidParams(String),
    /// An operand had the wrong size or shape.
    DimensionMismatch {
        /// The size that was provided.
        got: usize,
        /// The size that was required (or the capacity that was exceeded).
        want: usize,
    },
    /// Operand levels or scales are incompatible (align or rescale first).
    /// Carries the structured [`OperandMismatch`] a compiler can inspect.
    LevelMismatch(OperandMismatch),
    /// The modulus chain has no levels left to consume (RESCALE at level 0,
    /// or fewer levels than a multi-prime drop needs).
    ModulusChainExhausted,
    /// The remaining noise budget is too small for the result to be
    /// trustworthy; continuing would silently corrupt the message.
    NoiseBudgetExhausted {
        /// Measured remaining budget in bits (may be negative).
        budget_bits: f64,
    },
    /// A required key (relinearization / rotation / conjugation) is missing.
    MissingKey(String),
    /// Wire-format decoding failed (truncation, bad magic, wrong kind,
    /// out-of-range coefficient, trailing bytes).
    WireDecode(String),
    /// Underlying modular/polynomial arithmetic error.
    Math(String),
    /// An injected or modeled device fault. Deterministic under
    /// [`FaultPlan`]; never silently alters results.
    SimFault {
        /// What failed.
        kind: FaultKind,
        /// Where it failed (a stable site label such as `"batch.hmult"`).
        site: String,
    },
    /// A worker thread panicked; the panic was isolated and converted into
    /// this error instead of aborting the process.
    WorkerPanicked(String),
    /// A serving queue rejected an admission because it is at capacity —
    /// the backpressure signal of the `wd-serve` layer. The *client* must
    /// slow down or resubmit later; it is deliberately **not** transient,
    /// so no recovery envelope blind-retries into a full queue.
    QueueFull {
        /// Queue depth at rejection time.
        depth: usize,
        /// The configured admission capacity.
        capacity: usize,
    },
    /// A queued request's deadline expired before execution began; the
    /// request was shed in-queue without consuming compute.
    DeadlineExceeded {
        /// How long the request waited in the queue, microseconds.
        waited_us: u64,
    },
    /// A tenant's per-tenant admission quota is exhausted: the tenant
    /// already has `in_flight` requests admitted and not yet answered.
    /// Like [`WdError::QueueFull`] this is a *client-side* backpressure
    /// signal — deliberately not transient, so no recovery envelope
    /// blind-retries into an exhausted quota.
    TenantQuotaExceeded {
        /// The tenant whose quota is exhausted.
        tenant: String,
        /// Admitted-but-unanswered requests for this tenant.
        in_flight: usize,
        /// The configured per-tenant quota.
        quota: usize,
    },
    /// A request named a tenant the serving registry does not know.
    UnknownTenant(String),
    /// An integrity checksum did not match: the named object (a cached key,
    /// a wire frame) was corrupted between computation and verification.
    /// Deliberately not transient — the *caller* decides the repair
    /// (quarantine-and-reload for keys, poison-and-reconnect for streams);
    /// blind re-execution would just re-consume the corrupt bytes.
    IntegrityViolation {
        /// What failed verification (a stable label such as
        /// `"keycache resident alice"` or `"wire frame"`).
        what: String,
        /// The checksum recorded when the object was known-good.
        expected: u64,
        /// The checksum computed at verification time.
        got: u64,
    },
    /// The tenant's circuit breaker is open: recent requests failed or shed
    /// at a rate past the configured threshold, so admission is refused
    /// *before* queueing to protect other tenants. A client-side
    /// backpressure signal like [`WdError::QueueFull`] — deliberately not
    /// transient; retry after `retry_after_us`.
    TenantCircuitOpen {
        /// The tenant whose breaker is open.
        tenant: String,
        /// Microseconds until the breaker next admits a half-open probe.
        retry_after_us: u64,
    },
}

impl WdError {
    /// Builds a fully structured [`WdError::LevelMismatch`]: `op` saw
    /// `lhs` = (level, scale) against `rhs` = (level, scale).
    pub fn operand_mismatch(op: &str, lhs: (usize, f64), rhs: (usize, f64)) -> Self {
        WdError::LevelMismatch(OperandMismatch::new(op, lhs, rhs))
    }

    /// Whether a bounded retry of the same work can clear this error.
    ///
    /// Injected transient faults and isolated worker panics are retryable
    /// (the inputs are intact); validation errors, exhaustion and device
    /// loss are not.
    pub fn is_transient(&self) -> bool {
        match self {
            WdError::SimFault { kind, .. } => kind.is_transient(),
            WdError::WorkerPanicked(_) => true,
            _ => false,
        }
    }
}

impl core::fmt::Display for WdError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WdError::InvalidParams(s) => write!(f, "invalid parameters: {s}"),
            WdError::DimensionMismatch { got, want } => {
                write!(f, "dimension mismatch: got {got}, want at most {want}")
            }
            WdError::LevelMismatch(s) => write!(f, "operand mismatch: {s}"),
            WdError::ModulusChainExhausted => {
                write!(
                    f,
                    "modulus chain exhausted: no multiplicative levels remaining"
                )
            }
            WdError::NoiseBudgetExhausted { budget_bits } => {
                write!(
                    f,
                    "noise budget exhausted ({budget_bits:.1} bits remaining)"
                )
            }
            WdError::MissingKey(s) => write!(f, "missing key: {s}"),
            WdError::WireDecode(s) => write!(f, "wire decode failure: {s}"),
            WdError::Math(s) => write!(f, "arithmetic failure: {s}"),
            WdError::SimFault { kind, site } => write!(f, "injected fault at {site}: {kind}"),
            WdError::WorkerPanicked(s) => write!(f, "worker thread panicked: {s}"),
            WdError::QueueFull { depth, capacity } => {
                write!(
                    f,
                    "serving queue full: depth {depth} of capacity {capacity}"
                )
            }
            WdError::DeadlineExceeded { waited_us } => {
                write!(f, "deadline exceeded after {waited_us} us in queue")
            }
            WdError::TenantQuotaExceeded {
                tenant,
                in_flight,
                quota,
            } => {
                write!(
                    f,
                    "tenant {tenant:?} quota exceeded: {in_flight} in flight of quota {quota}"
                )
            }
            WdError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            WdError::IntegrityViolation {
                what,
                expected,
                got,
            } => {
                write!(
                    f,
                    "integrity violation: {what}: checksum expected {expected:#018x}, got {got:#018x}"
                )
            }
            WdError::TenantCircuitOpen {
                tenant,
                retry_after_us,
            } => {
                write!(
                    f,
                    "tenant {tenant:?} circuit open: retry after {retry_after_us} us"
                )
            }
        }
    }
}

impl std::error::Error for WdError {}

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// A deterministic, seedable fault schedule.
///
/// The plan is a pure function `(seed, draw index) → Option<FaultKind>`:
/// the n-th consultation of a plan with a given seed always returns the
/// same decision, so any failure an injected run produces can be replayed
/// exactly by rerunning with the same seed and rate. Rates are quantized to
/// parts-per-million.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    rate_ppm: u32,
}

impl FaultPlan {
    /// A plan that never injects (the production default).
    pub fn disabled() -> Self {
        Self {
            seed: 0,
            rate_ppm: 0,
        }
    }

    /// A plan injecting faults at `rate` (clamped to `[0, 1]`) under `seed`.
    pub fn new(seed: u64, rate: f64) -> Self {
        let rate = if rate.is_finite() { rate } else { 0.0 };
        Self {
            seed,
            rate_ppm: (rate.clamp(0.0, 1.0) * 1e6).round() as u32,
        }
    }

    /// Reads [`FAULT_SEED_ENV`] / [`FAULT_RATE_ENV`]. Unset or malformed
    /// values fall back to seed 0 / rate 0 (disabled), with a warning on
    /// stderr for malformed ones — never a panic.
    pub fn from_env() -> Self {
        let seed = env::parse_with("fault.seed", FAULT_SEED_ENV, 0u64, |s| s.parse().ok());
        let rate = env::parse_or("fault.rate", FAULT_RATE_ENV, 0.0f64, |r| {
            (0.0..=1.0).contains(r)
        });
        Self::new(seed, rate)
    }

    /// Whether this plan can ever inject a fault.
    pub fn is_active(&self) -> bool {
        self.rate_ppm > 0
    }

    /// The seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The injection rate as a fraction in `[0, 1]`.
    pub fn rate(&self) -> f64 {
        f64::from(self.rate_ppm) / 1e6
    }

    /// The decision for the `draw`-th consultation: `None` (no fault) or
    /// the kind to inject. Pure and deterministic.
    pub fn decide(&self, draw: u64) -> Option<FaultKind> {
        if self.rate_ppm == 0 {
            return None;
        }
        let h = splitmix64(self.seed ^ draw.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        if (h >> 32) % 1_000_000 >= u64::from(self.rate_ppm) {
            return None;
        }
        // Weight the kinds the way real telemetry skews: mostly transient
        // launch failures, some ECC events, rare device loss.
        Some(match h % 10 {
            0..=5 => FaultKind::TransientLaunch,
            6..=8 => FaultKind::CorruptedLimb,
            _ => FaultKind::DeviceLost,
        })
    }
}

/// SplitMix64 — the standard 64-bit finalizing mixer (public domain).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A [`FaultPlan`] plus the draw counter that sequences its decisions.
///
/// Each call to [`FaultInjector::check`] consumes one draw, so a retried
/// unit of work consults a *fresh* decision — exactly how a relaunched
/// kernel faces an independent chance of failure. The counter is atomic;
/// concurrent workers share one injector.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    draws: AtomicU64,
    /// Drill queue: kinds armed via [`FaultInjector::force_next`] fire on
    /// the next checks, ahead of (and without consuming) plan draws.
    forced: std::sync::Mutex<std::collections::VecDeque<FaultKind>>,
}

impl FaultInjector {
    /// Injector for a plan.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            draws: AtomicU64::new(0),
            forced: std::sync::Mutex::new(std::collections::VecDeque::new()),
        }
    }

    /// Injector that never fires.
    pub fn disabled() -> Self {
        Self::new(FaultPlan::disabled())
    }

    /// The plan.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Whether any fault can ever fire.
    pub fn is_active(&self) -> bool {
        self.plan.is_active()
    }

    /// Number of draws consumed so far.
    pub fn draws(&self) -> u64 {
        self.draws.load(Ordering::Relaxed)
    }

    /// Arms the next `n` calls to [`FaultInjector::check`] to fire `kind`
    /// deterministically, ahead of the ambient plan and **without**
    /// consuming plan draws — so a drill does not perturb the seeded
    /// schedule around it. The drill entry point for fault kinds the plan
    /// never emits on its own (e.g. [`FaultKind::CorruptedKey`], whose
    /// ambient weighting is pinned by existing deterministic schedules).
    pub fn force_next(&self, kind: FaultKind, n: usize) {
        let mut q = self.forced.lock().expect("forced-fault queue poisoned");
        for _ in 0..n {
            q.push_back(kind);
        }
    }

    /// Number of armed-but-unfired forced faults.
    pub fn forced_pending(&self) -> usize {
        self.forced
            .lock()
            .expect("forced-fault queue poisoned")
            .len()
    }

    /// Consults the plan once: `Ok(())` to proceed, or the injected fault
    /// as [`WdError::SimFault`] tagged with `site`. Forced faults (armed
    /// via [`FaultInjector::force_next`]) fire first, even when the plan
    /// itself is disabled.
    pub fn check(&self, site: &str) -> Result<(), WdError> {
        if let Some(kind) = self
            .forced
            .lock()
            .expect("forced-fault queue poisoned")
            .pop_front()
        {
            wd_trace::counter("fault.injected", 1);
            return Err(WdError::SimFault {
                kind,
                site: site.to_string(),
            });
        }
        if !self.plan.is_active() {
            return Ok(());
        }
        let draw = self.draws.fetch_add(1, Ordering::Relaxed);
        match self.plan.decide(draw) {
            None => Ok(()),
            Some(kind) => {
                wd_trace::counter("fault.injected", 1);
                Err(WdError::SimFault {
                    kind,
                    site: site.to_string(),
                })
            }
        }
    }
}

impl Clone for FaultInjector {
    fn clone(&self) -> Self {
        Self {
            plan: self.plan,
            draws: AtomicU64::new(self.draws.load(Ordering::Relaxed)),
            forced: std::sync::Mutex::new(
                self.forced
                    .lock()
                    .expect("forced-fault queue poisoned")
                    .clone(),
            ),
        }
    }
}

impl Default for FaultInjector {
    fn default() -> Self {
        Self::disabled()
    }
}

// ---------------------------------------------------------------------------
// Panic isolation and bounded retry
// ---------------------------------------------------------------------------

/// Runs `f` with panic isolation: a panic inside `f` is caught and returned
/// as [`WdError::WorkerPanicked`] (with the panic message when it is a
/// string) instead of unwinding into the caller.
pub fn run_isolated<T>(f: impl FnOnce() -> Result<T, WdError>) -> Result<T, WdError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "opaque panic payload".to_string()
            };
            Err(WdError::WorkerPanicked(msg))
        }
    }
}

/// Bounded, deterministic retry policy for transient faults.
///
/// Attempt `k` (zero-based) sleeps `base_backoff × 2^k` before retrying —
/// a deterministic exponential schedule (no jitter: determinism is a
/// design invariant of this reproduction, and the contention jitter guards
/// against does not exist between independent retries of pure work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts of the primary path (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each further attempt.
    pub base_backoff: Duration,
}

impl RetryPolicy {
    /// The backoff before retrying after failed attempt `attempt`
    /// (zero-based): `base_backoff × 2^attempt`, capped at 100 ms.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let exp = self.base_backoff.saturating_mul(1u32 << attempt.min(10));
        exp.min(Duration::from_millis(100))
    }

    /// Runs `op` with fault injection, panic isolation, and bounded retry.
    ///
    /// Each attempt first consults `injector` (a fired fault counts as a
    /// failed attempt), then runs `op` inside [`run_isolated`]. Transient
    /// errors ([`WdError::is_transient`]) are retried up to
    /// `max_attempts` with deterministic backoff; non-transient errors
    /// return immediately. `op` must be safely re-runnable — in this
    /// workspace every retried unit is pure (`&input → owned output`), so
    /// results are bit-identical however many attempts were needed.
    ///
    /// # Errors
    ///
    /// The last attempt's error when every attempt failed.
    pub fn run<T>(
        &self,
        site: &str,
        injector: &FaultInjector,
        op: impl Fn() -> Result<T, WdError>,
    ) -> Result<T, WdError> {
        let mut last = None;
        for attempt in 0..self.max_attempts.max(1) {
            if attempt > 0 {
                let pause = self.backoff_for(attempt - 1);
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
            }
            let result = injector.check(site).and_then(|()| run_isolated(&op));
            match result {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() => {
                    if attempt + 1 < self.max_attempts.max(1) {
                        wd_trace::counter("fault.retries", 1);
                        wd_trace::event(
                            "fault",
                            "retry",
                            &[
                                ("site", site.to_string()),
                                ("attempt", attempt.to_string()),
                                ("error", e.to_string()),
                            ],
                        );
                    }
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| WdError::WorkerPanicked("retry exhausted".into())))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_micros(50),
        }
    }
}

// ---------------------------------------------------------------------------
// Integrity checksums
// ---------------------------------------------------------------------------

/// Dependency-free 64-bit checksums over limb slabs and wire frames.
///
/// The serving layer holds hundreds of MiB of keyswitch-key limbs resident
/// (SET-E relin keys model at 630 MiB) — exactly the regime where a silent
/// bit flip would otherwise be *served*. This module provides the
/// detection half of the quarantine-and-reload story: a checksum recorded
/// when the object was known-good (key registration, frame encode) and
/// recomputed at every trust boundary (every keycache lease, every v3
/// frame decode).
///
/// It is an error-*detection* code, not a MAC: it catches corruption, not
/// adversaries. The step is FNV-1a's — xor a 64-bit word in, multiply by
/// the FNV prime — and every word costs exactly one of each. What differs
/// from a textbook FNV is the shape of the dependency chain: a single
/// xor-multiply chain retires one word per multiply *latency* (≈ 5 GB/s),
/// so bulk data ([`integrity::Fnv64::write_words`],
/// [`integrity::Fnv64::write_bytes`]) is dealt round-robin over
/// [`integrity::LANES`] independent chains that retire one word per
/// multiply *throughput*, and the lanes are folded back into the running
/// state together with the length. Host cost is a measured quantity: the
/// per-lease verify of a SET-B relin key read 17–18 % of a light request
/// on the single-chain hash (`benchmark/README.md`); `BENCH_guard.json`
/// records what it reads now beside the modeled GPU-side share.
///
/// # Definition
///
/// With `step(s, w) = (s ^ w) · FNV_PRIME mod 2^64`, a hasher starts at
/// `state = FNV_OFFSET` and
///
/// - `write_u64(w)`: `state = step(state, w)` — structural markers
///   (presence flags, counts);
/// - `write_words(ws)`: `lane[l] = step(state, l)` for `l < LANES`; word
///   `i` goes to lane `i mod LANES` (`lane = step(lane, w)`); then
///   `state = step(state, lane[l])` for each lane in order, and finally
///   `state = step(state, ws.len())`;
/// - `write_bytes(bs)`: the same over little-endian 8-byte words, a final
///   partial word zero-padded, folding `bs.len()` (bytes, not words);
/// - `write_u32s(ws)`: `write_bytes` of the words' little-endian image.
///
/// Every step is a bijection of the state it updates, so two inputs that
/// differ in one word (a single flipped bit included) always digest
/// differently; the folded length keeps `[1]` and `[1, 0]` apart. The word
/// feed and the byte feed of the same data are *different* streams by
/// construction (they fold different lengths) — callers must checksum the
/// same representation they verify.
pub mod integrity {
    /// FNV-1a 64-bit offset basis.
    pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// FNV-1a 64-bit prime.
    pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    /// Independent xor-multiply chains a bulk write is dealt over.
    pub const LANES: usize = 4;

    #[inline(always)]
    fn step(state: u64, word: u64) -> u64 {
        (state ^ word).wrapping_mul(FNV_PRIME)
    }

    /// Incremental hasher (see the module docs for the exact definition).
    ///
    /// Feed structural scalars with [`Fnv64::write_u64`], limb slabs with
    /// [`Fnv64::write_words`] (32-bit key slabs with [`Fnv64::write_u32s`])
    /// and wire frames with [`Fnv64::write_bytes`];
    /// finish with [`Fnv64::finish`].
    #[derive(Debug, Clone)]
    pub struct Fnv64 {
        state: u64,
    }

    impl Fnv64 {
        /// A fresh hasher at the offset basis.
        pub fn new() -> Self {
            Self { state: FNV_OFFSET }
        }

        /// Folds one 64-bit word into the digest.
        pub fn write_u64(&mut self, word: u64) {
            self.state = step(self.state, word);
        }

        fn lanes(&self) -> [u64; LANES] {
            std::array::from_fn(|l| step(self.state, l as u64))
        }

        fn fold(&mut self, lanes: [u64; LANES], len: usize) {
            for lane in lanes {
                self.write_u64(lane);
            }
            self.write_u64(len as u64);
        }

        /// Folds a slab of words, then its length.
        pub fn write_words(&mut self, words: &[u64]) {
            let mut lanes = self.lanes();
            let mut blocks = words.chunks_exact(LANES);
            for block in &mut blocks {
                for (lane, &w) in lanes.iter_mut().zip(block) {
                    *lane = step(*lane, w);
                }
            }
            for (lane, &w) in lanes.iter_mut().zip(blocks.remainder()) {
                *lane = step(*lane, w);
            }
            self.fold(lanes, words.len());
        }

        /// Folds a byte slice as little-endian 8-byte words (the last one
        /// zero-padded), then its length in bytes (so `[1]` and `[1, 0]`
        /// digest differently).
        pub fn write_bytes(&mut self, bytes: &[u8]) {
            let mut lanes = self.lanes();
            let mut blocks = bytes.chunks_exact(8 * LANES);
            for block in &mut blocks {
                for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                    // invariant: chunks_exact(8) yields exactly 8 bytes.
                    *lane = step(*lane, u64::from_le_bytes(w.try_into().expect("8 bytes")));
                }
            }
            for (lane, rest) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
                let mut w = [0u8; 8];
                w[..rest.len()].copy_from_slice(rest);
                *lane = step(*lane, u64::from_le_bytes(w));
            }
            self.fold(lanes, bytes.len());
        }

        /// Folds a slab of 32-bit words exactly as [`Fnv64::write_bytes`]
        /// folds their little-endian byte image — two words to a step, the
        /// lower-indexed one in the low half — without building the image.
        pub fn write_u32s(&mut self, words: &[u32]) {
            let pair = |p: &[u32]| u64::from(p[0]) | p.get(1).map_or(0, |&h| u64::from(h) << 32);
            let mut lanes = self.lanes();
            let mut blocks = words.chunks_exact(2 * LANES);
            for block in &mut blocks {
                for (lane, &[lo, hi]) in lanes.iter_mut().zip(block.as_chunks::<2>().0) {
                    *lane = step(*lane, u64::from(lo) | u64::from(hi) << 32);
                }
            }
            for (lane, p) in lanes.iter_mut().zip(blocks.remainder().chunks(2)) {
                *lane = step(*lane, pair(p));
            }
            self.fold(lanes, 4 * words.len());
        }

        /// The digest so far.
        pub fn finish(&self) -> u64 {
            self.state
        }
    }

    impl Default for Fnv64 {
        fn default() -> Self {
            Self::new()
        }
    }

    /// One-shot checksum of a byte slice (see [`Fnv64::write_bytes`]).
    pub fn checksum_bytes(bytes: &[u8]) -> u64 {
        let mut h = Fnv64::new();
        h.write_bytes(bytes);
        h.finish()
    }

    /// One-shot checksum of a word slab (see [`Fnv64::write_words`]).
    pub fn checksum_words(words: &[u64]) -> u64 {
        let mut h = Fnv64::new();
        h.write_words(words);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn operand_mismatch_display_is_stable() {
        // Legacy string payloads render verbatim behind the unchanged
        // "operand mismatch: " prefix…
        let legacy = WdError::LevelMismatch("hsub operands".into());
        assert_eq!(legacy.to_string(), "operand mismatch: hsub operands");
        // …and the structured constructor renders the same text the
        // hand-formatted hadd site used to produce.
        let structured = WdError::operand_mismatch("hadd", (2, 1e10), (3, 1e10));
        assert_eq!(
            structured.to_string(),
            "operand mismatch: hadd: level 2/3 scale 1.000e10/1.000e10"
        );
        // A detail override wins over the structured rendering while the
        // fields stay machine-readable.
        let m = OperandMismatch::levels("level_drop", 1, 4).with_detail("cannot raise".into());
        assert_eq!(m.lhs_level, Some(1));
        assert_eq!(m.rhs_level, Some(4));
        assert_eq!(
            WdError::LevelMismatch(m).to_string(),
            "operand mismatch: cannot raise"
        );
    }

    #[test]
    fn operand_mismatch_fields_are_introspectable() {
        match WdError::operand_mismatch("hmult", (5, 2.0), (4, 8.0)) {
            WdError::LevelMismatch(m) => {
                assert_eq!(m.op, "hmult");
                assert_eq!((m.lhs_level, m.rhs_level), (Some(5), Some(4)));
                assert_eq!((m.lhs_scale, m.rhs_scale), (Some(2.0), Some(8.0)));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn disabled_plan_never_fires() {
        let p = FaultPlan::disabled();
        assert!(!p.is_active());
        assert!((0..10_000).all(|i| p.decide(i).is_none()));
    }

    #[test]
    fn plan_is_deterministic_and_rate_accurate() {
        let p = FaultPlan::new(42, 0.05);
        let a: Vec<_> = (0..50_000).map(|i| p.decide(i)).collect();
        let b: Vec<_> = (0..50_000).map(|i| p.decide(i)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        let fired = a.iter().filter(|d| d.is_some()).count();
        let rate = fired as f64 / 50_000.0;
        assert!((0.04..0.06).contains(&rate), "observed rate {rate}");
        // All three kinds occur at a 5% rate over 50k draws.
        for kind in [
            FaultKind::TransientLaunch,
            FaultKind::CorruptedLimb,
            FaultKind::DeviceLost,
        ] {
            assert!(a.iter().flatten().any(|&k| k == kind), "{kind} never fired");
        }
        // CorruptedKey is drill-only: the ambient kind weighting is pinned
        // by existing deterministic schedules, so it fires exclusively via
        // FaultInjector::force_next.
        assert!(
            !a.iter().flatten().any(|&k| k == FaultKind::CorruptedKey),
            "CorruptedKey must never fire from the ambient plan"
        );
    }

    #[test]
    fn forced_faults_fire_first_and_burn_no_draws() {
        let inj = FaultInjector::disabled();
        inj.force_next(FaultKind::CorruptedKey, 2);
        assert_eq!(inj.forced_pending(), 2);
        for _ in 0..2 {
            match inj.check("keycache.lease") {
                Err(WdError::SimFault { kind, site }) => {
                    assert_eq!(kind, FaultKind::CorruptedKey);
                    assert_eq!(site, "keycache.lease");
                }
                other => panic!("expected forced CorruptedKey, got {other:?}"),
            }
        }
        assert_eq!(inj.forced_pending(), 0);
        assert!(inj.check("keycache.lease").is_ok(), "queue drained");
        assert_eq!(inj.draws(), 0, "forced faults consume no plan draws");
        // An active plan resumes its unperturbed schedule after a drill.
        let plan = FaultPlan::new(9, 0.5);
        let ambient = FaultInjector::new(plan);
        ambient.force_next(FaultKind::DeviceLost, 1);
        assert!(ambient.check("t").is_err());
        let ambient_decisions: Vec<_> = (0..20).map(|_| ambient.check("t").is_err()).collect();
        let expected: Vec<_> = (0..20).map(|i| plan.decide(i).is_some()).collect();
        assert_eq!(ambient_decisions, expected, "drill must not shift draws");
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(1, 0.05);
        let b = FaultPlan::new(2, 0.05);
        assert!((0..10_000).any(|i| a.decide(i) != b.decide(i)));
    }

    #[test]
    fn full_rate_always_fires_zero_rate_never() {
        let always = FaultPlan::new(7, 1.0);
        assert!((0..100).all(|i| always.decide(i).is_some()));
        let never = FaultPlan::new(7, 0.0);
        assert!((0..100).all(|i| never.decide(i).is_none()));
    }

    #[test]
    fn injector_counter_advances_so_retries_redraw() {
        let inj = FaultInjector::new(FaultPlan::new(3, 1.0));
        assert!(inj.check("t").is_err());
        assert_eq!(inj.draws(), 1);
        let inj0 = FaultInjector::disabled();
        assert!(inj0.check("t").is_ok());
        assert_eq!(inj0.draws(), 0, "inactive injector burns no draws");
    }

    #[test]
    fn run_isolated_converts_panics() {
        let ok: Result<i32, WdError> = run_isolated(|| Ok(5));
        assert_eq!(ok, Ok(5));
        let err = run_isolated::<()>(|| panic!("boom {}", 7));
        assert_eq!(err, Err(WdError::WorkerPanicked("boom 7".into())));
    }

    #[test]
    fn retry_recovers_from_transient_faults() {
        // Rate 0.35: some attempts fault, but 5 attempts all faulting is
        // rare; scan seeds for one that recovers after ≥1 failure.
        let policy = RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::ZERO,
        };
        let mut recovered_after_failure = false;
        for seed in 0..50 {
            let inj = FaultInjector::new(FaultPlan::new(seed, 0.35));
            let calls = AtomicU32::new(0);
            let out = policy.run("unit", &inj, || {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(11u32)
            });
            if out == Ok(11) && inj.draws() > 1 {
                recovered_after_failure = true;
                break;
            }
        }
        assert!(recovered_after_failure);
    }

    #[test]
    fn retry_gives_up_after_max_attempts() {
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::ZERO,
        };
        let inj = FaultInjector::new(FaultPlan::new(0, 1.0));
        let calls = AtomicU32::new(0);
        let out = policy.run("unit", &inj, || {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        assert!(matches!(out, Err(WdError::SimFault { .. })));
        assert_eq!(calls.load(Ordering::Relaxed), 0, "faults fire pre-launch");
        assert_eq!(inj.draws(), 3);
    }

    #[test]
    fn retry_does_not_retry_permanent_errors() {
        let policy = RetryPolicy::default();
        let inj = FaultInjector::disabled();
        let calls = AtomicU32::new(0);
        let out: Result<(), _> = policy.run("unit", &inj, || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(WdError::ModulusChainExhausted)
        });
        assert_eq!(out, Err(WdError::ModulusChainExhausted));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn retry_retries_worker_panics() {
        let policy = RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::ZERO,
        };
        let inj = FaultInjector::disabled();
        let calls = AtomicU32::new(0);
        let out = policy.run("unit", &inj, || {
            if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("first attempt dies");
            }
            Ok(3u8)
        });
        assert_eq!(out, Ok(3));
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn transient_classification() {
        assert!(WdError::WorkerPanicked("x".into()).is_transient());
        assert!(WdError::SimFault {
            kind: FaultKind::TransientLaunch,
            site: "s".into()
        }
        .is_transient());
        assert!(!WdError::SimFault {
            kind: FaultKind::DeviceLost,
            site: "s".into()
        }
        .is_transient());
        assert!(!WdError::ModulusChainExhausted.is_transient());
        assert!(!WdError::InvalidParams("p".into()).is_transient());
        // Serving-layer conditions are signals to the client, not to the
        // recovery envelope: QueueFull is backpressure, DeadlineExceeded is
        // already too late — neither may be blind-retried.
        assert!(!WdError::QueueFull {
            depth: 8,
            capacity: 8
        }
        .is_transient());
        assert!(!WdError::DeadlineExceeded { waited_us: 5000 }.is_transient());
        assert!(!WdError::TenantQuotaExceeded {
            tenant: "alice".into(),
            in_flight: 4,
            quota: 4
        }
        .is_transient());
        assert!(!WdError::UnknownTenant("mallory".into()).is_transient());
        // CorruptedKey is transient at the *fault* level (reload from the
        // cold copy repairs it); a surfaced IntegrityViolation is not — the
        // caller owns the repair, blind re-execution re-reads corrupt bytes.
        assert!(WdError::SimFault {
            kind: FaultKind::CorruptedKey,
            site: "s".into()
        }
        .is_transient());
        assert!(!WdError::IntegrityViolation {
            what: "keycache resident alice".into(),
            expected: 1,
            got: 2
        }
        .is_transient());
        assert!(!WdError::TenantCircuitOpen {
            tenant: "alice".into(),
            retry_after_us: 1000
        }
        .is_transient());
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(1),
        };
        assert_eq!(p.backoff_for(0), Duration::from_millis(1));
        assert_eq!(p.backoff_for(1), Duration::from_millis(2));
        assert_eq!(p.backoff_for(2), Duration::from_millis(4));
        assert_eq!(p.backoff_for(30), Duration::from_millis(100), "capped");
    }

    #[test]
    fn env_names_are_stable() {
        // Documented knobs; CI and DESIGN.md reference them by name.
        assert_eq!(FAULT_SEED_ENV, "WD_FAULT_SEED");
        assert_eq!(FAULT_RATE_ENV, "WD_FAULT_RATE");
    }

    #[test]
    fn error_display_is_informative() {
        let e = WdError::SimFault {
            kind: FaultKind::CorruptedLimb,
            site: "batch.hmult".into(),
        };
        let s = e.to_string();
        assert!(s.contains("batch.hmult") && s.contains("corrupted limb"));
        assert!(WdError::ModulusChainExhausted
            .to_string()
            .contains("modulus chain exhausted"));
    }

    #[test]
    fn serving_error_display_names_the_numbers() {
        let full = WdError::QueueFull {
            depth: 256,
            capacity: 256,
        };
        assert_eq!(
            full.to_string(),
            "serving queue full: depth 256 of capacity 256"
        );
        let late = WdError::DeadlineExceeded { waited_us: 1234 };
        assert_eq!(late.to_string(), "deadline exceeded after 1234 us in queue");
        let quota = WdError::TenantQuotaExceeded {
            tenant: "alice".into(),
            in_flight: 9,
            quota: 8,
        };
        assert_eq!(
            quota.to_string(),
            "tenant \"alice\" quota exceeded: 9 in flight of quota 8"
        );
        assert_eq!(
            WdError::UnknownTenant("mallory".into()).to_string(),
            "unknown tenant \"mallory\""
        );
        let bad = WdError::IntegrityViolation {
            what: "keycache resident alice".into(),
            expected: 0xdead_beef,
            got: 0x0bad_f00d,
        };
        assert_eq!(
            bad.to_string(),
            "integrity violation: keycache resident alice: \
             checksum expected 0x00000000deadbeef, got 0x000000000badf00d"
        );
        let open = WdError::TenantCircuitOpen {
            tenant: "bob".into(),
            retry_after_us: 250_000,
        };
        assert_eq!(
            open.to_string(),
            "tenant \"bob\" circuit open: retry after 250000 us"
        );
    }

    #[test]
    fn checksum_definition_is_pinned() {
        use super::integrity::{
            checksum_bytes, checksum_words, Fnv64, FNV_OFFSET, FNV_PRIME, LANES,
        };
        let step = |s: u64, w: u64| (s ^ w).wrapping_mul(FNV_PRIME);
        // Scalars are one plain FNV-1a step each.
        let mut h = Fnv64::new();
        assert_eq!(h.finish(), FNV_OFFSET);
        h.write_u64(0);
        assert_eq!(h.finish(), FNV_OFFSET.wrapping_mul(FNV_PRIME));
        // A slab, by the definition in the module docs, spelled out: lanes
        // seeded from the state, words dealt round-robin, lanes then the
        // length folded back.
        let words = [7u64, 11, 13, 17, 19, 23];
        let mut lanes: Vec<u64> = (0..LANES as u64).map(|l| step(FNV_OFFSET, l)).collect();
        for (i, &w) in words.iter().enumerate() {
            lanes[i % LANES] = step(lanes[i % LANES], w);
        }
        let mut expect = lanes.iter().fold(FNV_OFFSET, |s, &lane| step(s, lane));
        expect = step(expect, words.len() as u64);
        assert_eq!(checksum_words(&words), expect);
        // Pinned vectors: a digest change is a wire-format change (the v3
        // trailer) and must be a deliberate one.
        assert_eq!(checksum_words(&[]), 0x9528_99fb_8620_8603);
        assert_eq!(checksum_words(&words), 0x718a_38f9_63e7_3945);
        assert_eq!(checksum_bytes(b""), 0x9528_99fb_8620_8603);
        assert_eq!(checksum_bytes(b"warpdrive"), 0xd7c0_8c72_00db_eb8e);
    }

    #[test]
    fn checksum_detects_every_single_bit_flip_at_every_length() {
        use super::integrity::{checksum_bytes, checksum_words};
        // 0..=67 words covers empty, sub-lane, every lane-tail length and
        // many full blocks of the four-lane dealing.
        for len in 0..=67usize {
            let words: Vec<u64> = (0..len as u64)
                .map(|i| (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect();
            let reference = checksum_words(&words);
            assert_eq!(reference, checksum_words(&words), "deterministic");
            let mut flipped = words.clone();
            for i in 0..len {
                for bit in 0..64 {
                    flipped[i] ^= 1 << bit;
                    assert_ne!(
                        checksum_words(&flipped),
                        reference,
                        "len {len}, word {i}, bit {bit}"
                    );
                    flipped[i] ^= 1 << bit;
                }
            }
            // The same through the byte feed, including ragged tails.
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            for cut in [bytes.len(), bytes.len().saturating_sub(3)] {
                let bytes = &bytes[..cut];
                let reference = checksum_bytes(bytes);
                let mut flipped = bytes.to_vec();
                for i in 0..cut {
                    for bit in 0..8 {
                        flipped[i] ^= 1 << bit;
                        assert_ne!(checksum_bytes(&flipped), reference, "byte {i} of {cut}");
                        flipped[i] ^= 1 << bit;
                    }
                }
            }
        }
    }

    #[test]
    fn u32_feed_is_the_byte_feed_of_the_little_endian_image() {
        use super::integrity::Fnv64;
        for len in 0..=19u32 {
            let words: Vec<u32> = (0..len)
                .map(|i| (i + 1).wrapping_mul(0x9e37_79b9))
                .collect();
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let (mut a, mut b) = (Fnv64::new(), Fnv64::new());
            a.write_u32s(&words);
            b.write_bytes(&bytes);
            assert_eq!(a.finish(), b.finish(), "{len} words");
        }
    }

    #[test]
    fn checksum_keeps_lengths_paddings_and_feeds_apart() {
        use super::integrity::{checksum_bytes, checksum_words, Fnv64};
        // Length folding: zero-padding cannot collide, in either feed.
        assert_ne!(checksum_bytes(&[1]), checksum_bytes(&[1, 0]));
        assert_ne!(checksum_bytes(&[]), checksum_bytes(&[0]));
        assert_ne!(checksum_bytes(&[0; 8]), checksum_bytes(&[0; 9]));
        assert_ne!(checksum_words(&[1]), checksum_words(&[1, 0]));
        assert_ne!(checksum_words(&[]), checksum_words(&[0]));
        for len in 0..12usize {
            assert_ne!(
                checksum_words(&vec![0; len]),
                checksum_words(&vec![0; len + 1]),
                "all-zero slabs of {len} and {} words",
                len + 1
            );
        }
        // Words in different lanes are not interchangeable.
        assert_ne!(checksum_words(&[1, 2, 3, 4]), checksum_words(&[2, 1, 3, 4]));
        // One slab is not two slabs: the split is folded.
        let mut split = Fnv64::new();
        split.write_words(&[1, 2]);
        split.write_words(&[3, 4]);
        assert_ne!(split.finish(), checksum_words(&[1, 2, 3, 4]));
        // Byte and word feeds of the same data are distinct streams (they
        // fold different lengths): callers verify what they hashed.
        assert_ne!(checksum_bytes(&42u64.to_le_bytes()), checksum_words(&[42]));
        // A scalar fed through write_u64 is not a one-word slab either.
        let mut scalar = Fnv64::new();
        scalar.write_u64(42);
        assert_ne!(scalar.finish(), checksum_words(&[42]));
    }
}
