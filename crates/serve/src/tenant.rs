//! Multi-tenant serving: the tenant registry, per-tenant admission quotas,
//! and the byte-budgeted LRU keyswitch-key cache.
//!
//! Keyswitch keys dominate the working set of GPU FHE serving — Cheddar's
//! key-memory analysis and Theodosian's memory-hierarchy study both find
//! evaluation/rotation keys, not ciphertexts, are the capacity bottleneck —
//! so a server for many tenants cannot keep every tenant's key material
//! resident. This module models that constraint explicitly:
//!
//! - A [`TenantRegistry`] maps validated tenant ids to their
//!   [`CkksContext`] and **cold** (host-side, authoritative) key material.
//! - Workers lease keys through a **resident cache**: an LRU over per-tenant
//!   [`ServeKeys`] charged by [`ServeKeys::bytes`] against a byte
//!   budget ([`TenantConfig::key_cache_bytes`]). A miss "uploads" the cold
//!   copy (modeling the host→device transfer); eviction drops the resident
//!   copy only — the cold copy is authoritative, so eviction/reload churn
//!   can never change a result, only cost.
//! - Admission charges a per-tenant in-flight quota
//!   ([`TenantConfig::quota`]) on top of the server's global bounded
//!   queue; exhaustion is the typed [`WdError::TenantQuotaExceeded`]
//!   signal, layered on (not replacing) the existing priority classes.
//!
//! Two guard layers sit on top (PR 7's self-healing story):
//!
//! - **Key integrity**: registration records a checksum
//!   ([`wd_fault::integrity`]) of the cold keys ([`ServeKeys::checksum`]).
//!   Resident keys are verified on every lease that reads the keys (a
//!   batch with an HMult, an HRotate or a program), outside the cache lock
//!   (the threat is a bit flip while resident in device memory — the
//!   cold/host copy is authoritative); a cache fill verifies the cold copy
//!   first. A lease for HAdd/HSub/Rescale only reads no key byte, so it
//!   counts its hit and skips the checksum: every key byte a batch reads
//!   is verified in that batch's lease. A mismatch
//!   quarantines the resident entry (`serve.keycache.quarantined`, a
//!   `serve.guard` event naming [`FaultKind::CorruptedKey`]) and falls
//!   through to the miss path, reloading from cold — the corrupted copy
//!   is *repaired*, never served to an op that reads it. A cold copy
//!   failing its own checksum is unrecoverable here and surfaces as
//!   [`WdError::IntegrityViolation`].
//! - **Circuit breakers** ([`crate::breaker`]): per-tenant rolling
//!   failure/shed-rate windows that refuse admission fast
//!   ([`WdError::TenantCircuitOpen`]) instead of queueing doomed work.
//!   Off by default; enabled by a [`TenantConfig::breaker`].
//!
//! Per-tenant observability flows through `wd-trace` as
//! `serve.tenant.<id>.{enqueued,completed,shed,rejected}` counters and a
//! `serve.tenant.<id>.latency_us` histogram; the cache reports
//! `serve.keycache.{hits,misses,evictions,quarantined,poison_recovered}`
//! counters and a
//! `serve.keycache.resident_bytes` gauge; breaker transitions emit
//! `serve.guard.breaker_{open,half_open,closed}` counters.
//!
//! [`FaultKind::CorruptedKey`]: wd_fault::FaultKind::CorruptedKey

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use wd_ckks::wire::MAX_LABEL_BYTES;
use wd_ckks::CkksContext;
use wd_fault::{FaultKind, WdError};

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::recover;
use crate::server::ServeKeys;

/// The tenant id single-tenant servers run under (and the id a tenant-less
/// v1 wire frame is routed to).
pub const DEFAULT_TENANT: &str = "default";

/// Tenant-layer configuration ([`TenantConfig::default`]: a 512 MiB key
/// cache, no quota, keys verified, no breakers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// Byte budget for resident (leased) key material, charged at each key
    /// set's resident size ([`ServeKeys::bytes`]: 32-bit words, so the
    /// budget bounds the memory the copies really hold). A single tenant's
    /// keys larger than the whole budget still serve — they are made
    /// resident with a warning and evicted as soon as another tenant needs
    /// the space.
    pub key_cache_bytes: usize,
    /// Maximum admitted-but-unanswered requests per tenant
    /// (`usize::MAX` = unlimited).
    pub quota: usize,
    /// Verify key checksums on every cache fill and on every lease that
    /// reads the keys (quarantine-and-reload on a resident mismatch). On by
    /// default; off only for the A/B overhead measurement.
    pub verify_keys: bool,
    /// Per-tenant circuit breakers (`None` = disabled, the default;
    /// `Some` gives every tenant its own breaker with this tuning).
    pub breaker: Option<BreakerConfig>,
}

impl Default for TenantConfig {
    fn default() -> Self {
        Self {
            key_cache_bytes: 512 << 20,
            quota: usize::MAX,
            verify_keys: true,
            breaker: None,
        }
    }
}

/// Lifetime accounting for one tenant, snapshot by
/// [`crate::server::Server::tenant_stats`]. After a drain,
/// `enqueued = completed + shed` and `in_flight = 0` — the per-tenant
/// lossless-drain invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantStats {
    /// Requests admitted for this tenant.
    pub enqueued: u64,
    /// Requests answered with an execution result (ok or error).
    pub completed: u64,
    /// Requests shed in-queue past their deadline.
    pub shed: u64,
    /// Submits rejected (quota or global queue capacity).
    pub rejected: u64,
    /// Submits refused by an open circuit breaker (a subset of
    /// `rejected`).
    pub breaker_shed: u64,
    /// Admitted and not yet answered.
    pub in_flight: usize,
}

/// One registered tenant: its context, cold key material, quota accounting
/// and pre-built trace signal names.
#[derive(Debug)]
pub(crate) struct Tenant {
    id: String,
    ctx: Arc<CkksContext>,
    /// Authoritative host-side key copy; the resident cache leases clones
    /// of it, so eviction can never lose key material.
    cold: ServeKeys,
    key_bytes: usize,
    /// Checksum of the cold keys at registration — the reference every
    /// verifying lease checks against.
    cold_checksum: u64,
    /// The tenant's circuit breaker (`None` = breakers disabled).
    breaker: Option<Mutex<CircuitBreaker>>,
    pending: AtomicUsize,
    enqueued: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    breaker_shed: AtomicU64,
    // Trace names are hot-path strings; build them once at registration.
    sig_enqueued: String,
    sig_completed: String,
    sig_shed: String,
    sig_rejected: String,
    sig_latency: String,
}

impl Tenant {
    fn new(id: &str, ctx: Arc<CkksContext>, cold: ServeKeys, config: &TenantConfig) -> Self {
        Self {
            id: id.to_string(),
            ctx,
            key_bytes: cold.bytes(),
            cold_checksum: cold.checksum(),
            cold,
            breaker: config.breaker.map(|b| Mutex::new(CircuitBreaker::new(b))),
            pending: AtomicUsize::new(0),
            enqueued: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            breaker_shed: AtomicU64::new(0),
            sig_enqueued: format!("serve.tenant.{id}.enqueued"),
            sig_completed: format!("serve.tenant.{id}.completed"),
            sig_shed: format!("serve.tenant.{id}.shed"),
            sig_rejected: format!("serve.tenant.{id}.rejected"),
            sig_latency: format!("serve.tenant.{id}.latency_us"),
        }
    }

    pub(crate) fn id(&self) -> &str {
        &self.id
    }

    pub(crate) fn ctx(&self) -> &Arc<CkksContext> {
        &self.ctx
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.pending.load(Ordering::Relaxed)
    }

    pub(crate) fn note_enqueued(&self) {
        self.pending.fetch_add(1, Ordering::Relaxed);
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        wd_trace::counter(&self.sig_enqueued, 1);
    }

    pub(crate) fn note_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        wd_trace::counter(&self.sig_rejected, 1);
    }

    /// An in-queue deadline shed: counts as a breaker failure — a tenant
    /// whose work keeps expiring is burning queue slots for nothing.
    pub(crate) fn note_shed(&self, now_us: u64) {
        self.pending.fetch_sub(1, Ordering::Relaxed);
        self.shed.fetch_add(1, Ordering::Relaxed);
        wd_trace::counter(&self.sig_shed, 1);
        self.breaker_record(now_us, false);
    }

    pub(crate) fn note_completed(&self, waited_us: u64, now_us: u64, ok: bool) {
        self.pending.fetch_sub(1, Ordering::Relaxed);
        self.completed.fetch_add(1, Ordering::Relaxed);
        wd_trace::counter(&self.sig_completed, 1);
        wd_trace::observe(&self.sig_latency, waited_us);
        self.breaker_record(now_us, ok);
    }

    /// Breaker admission gate, consulted before quota and capacity.
    /// `Ok(())` when admitted (or breakers are off); `Err(retry_after_us)`
    /// from an open breaker.
    pub(crate) fn breaker_admit(&self, now_us: u64) -> Result<(), u64> {
        let Some(b) = &self.breaker else {
            return Ok(());
        };
        let mut g = recover(b.lock());
        let before = g.state();
        let out = g.admit(now_us);
        let after = g.state();
        drop(g);
        self.note_breaker_transition(before, after);
        if out.is_err() {
            self.breaker_shed.fetch_add(1, Ordering::Relaxed);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            wd_trace::counter(&self.sig_rejected, 1);
            wd_trace::counter("serve.guard.breaker_shed", 1);
        }
        out
    }

    /// The breaker's current state (`None` when breakers are off).
    pub(crate) fn breaker_state(&self) -> Option<BreakerState> {
        self.breaker.as_ref().map(|b| recover(b.lock()).state())
    }

    fn breaker_record(&self, now_us: u64, ok: bool) {
        let Some(b) = &self.breaker else {
            return;
        };
        let mut g = recover(b.lock());
        let before = g.state();
        g.record(now_us, ok);
        let after = g.state();
        drop(g);
        self.note_breaker_transition(before, after);
    }

    fn note_breaker_transition(&self, before: BreakerState, after: BreakerState) {
        if before == after {
            return;
        }
        let sig = match after {
            BreakerState::Open => "serve.guard.breaker_open",
            BreakerState::HalfOpen => "serve.guard.breaker_half_open",
            BreakerState::Closed => "serve.guard.breaker_closed",
        };
        wd_trace::counter(sig, 1);
        wd_trace::event(
            "serve.guard",
            "breaker",
            &[
                ("tenant", self.id.clone()),
                ("from", before.label().to_string()),
                ("to", after.label().to_string()),
            ],
        );
    }

    pub(crate) fn stats(&self) -> TenantStats {
        TenantStats {
            enqueued: self.enqueued.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            breaker_shed: self.breaker_shed.load(Ordering::Relaxed),
            in_flight: self.pending.load(Ordering::Relaxed),
        }
    }
}

/// Counters for the resident key cache, snapshot by
/// [`TenantRegistry::cache_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KeyCacheStats {
    /// Leases answered from the resident set.
    pub hits: u64,
    /// Leases that had to promote the cold copy (the modeled host→device
    /// key upload).
    pub misses: u64,
    /// Resident entries dropped to make room.
    pub evictions: u64,
    /// Resident entries dropped because their checksum failed on a hit
    /// (each was reloaded from the cold copy, not served).
    pub quarantined: u64,
    /// Times the cache mutex was found poisoned by a panicked thread and
    /// recovered (the cache kept serving).
    pub poison_recovered: u64,
    /// Bytes currently resident.
    pub resident_bytes: usize,
    /// The configured budget in bytes.
    pub budget_bytes: usize,
}

/// One resident entry: the leased key copy plus the exact byte amount
/// charged against the budget when it was promoted. Refunds (quarantine,
/// eviction) release this recorded charge — never a fresh
/// `bytes()` of the resident copy — so a charge/refund pair always
/// nets to zero and the budget accounting cannot drift even if the two
/// measurements ever disagree.
#[derive(Debug)]
struct Resident {
    keys: Arc<ServeKeys>,
    charged: usize,
}

/// LRU state: `order` front = least recently used. Tenant counts are small
/// (the map is the working set, not the tenant universe), so a `Vec` scan
/// beats pointer-chasing here.
#[derive(Debug, Default)]
struct CacheState {
    resident: HashMap<String, Resident>,
    order: Vec<String>,
    bytes: usize,
}

impl CacheState {
    /// Releases one entry's recorded charge. The books can only go
    /// negative through an accounting bug, so debug builds assert while
    /// release builds saturate rather than wrap the gauge to 16 EiB.
    fn refund(&mut self, charged: usize) {
        debug_assert!(
            self.bytes >= charged,
            "key cache refund of {charged} bytes exceeds the {} bytes on the books",
            self.bytes
        );
        self.bytes = self.bytes.saturating_sub(charged);
    }
}

/// The tenant registry: id → tenant, plus the shared resident key cache.
///
/// Registration happens before the server starts; afterwards the registry
/// is immutable (interior mutability is confined to the key cache and the
/// per-tenant atomics), so lookups are lock-free.
#[derive(Debug)]
pub struct TenantRegistry {
    config: TenantConfig,
    tenants: HashMap<String, Arc<Tenant>>,
    cache: Mutex<CacheState>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    quarantined: AtomicU64,
    poison_recovered: AtomicU64,
    /// Drill arm: the next N hits that verify (leases that read the keys)
    /// report a checksum mismatch (the in-memory stand-in for a
    /// device-resident bit flip).
    corrupt_arm: AtomicU64,
}

impl TenantRegistry {
    /// An empty registry under the given tenant-layer configuration.
    pub fn new(config: TenantConfig) -> Self {
        Self {
            config,
            tenants: HashMap::new(),
            cache: Mutex::new(CacheState::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            poison_recovered: AtomicU64::new(0),
            corrupt_arm: AtomicU64::new(0),
        }
    }

    /// A single-tenant registry holding `keys` under [`DEFAULT_TENANT`] —
    /// the adapter the tenant-unaware [`crate::Server::start`] path uses.
    pub fn single(ctx: Arc<CkksContext>, keys: ServeKeys) -> Self {
        let mut reg = Self::new(TenantConfig::default());
        reg.register(DEFAULT_TENANT, ctx, keys)
            .expect("DEFAULT_TENANT is a valid tenant id");
        reg
    }

    /// Registers a tenant: its id (validated — 1..=64 bytes of
    /// `[A-Za-z0-9._-]`), evaluation context, and cold key material.
    ///
    /// # Errors
    ///
    /// [`WdError::InvalidParams`] on a malformed or duplicate id.
    pub fn register(
        &mut self,
        id: &str,
        ctx: Arc<CkksContext>,
        keys: ServeKeys,
    ) -> Result<(), WdError> {
        validate_tenant_id(id)?;
        if self.tenants.contains_key(id) {
            return Err(WdError::InvalidParams(format!(
                "tenant {id:?} is already registered"
            )));
        }
        self.tenants.insert(
            id.to_string(),
            Arc::new(Tenant::new(id, ctx, keys, &self.config)),
        );
        Ok(())
    }

    /// Arms the next `n` verified cache hits to report a checksum
    /// mismatch — the [`FaultKind::CorruptedKey`] drill entry point. Each
    /// armed hit exercises the full quarantine-and-reload path against
    /// genuinely intact keys, so served results stay bit-identical while
    /// the `serve.keycache.quarantined` accounting is asserted exactly.
    /// A hit that reads no key verifies nothing and leaves the arm for the
    /// next lease that does. No-op while `verify_keys` is off (nothing
    /// would check the sum).
    pub fn arm_key_corruption(&self, n: u64) {
        self.corrupt_arm.fetch_add(n, Ordering::Relaxed);
    }

    /// The tenant-layer configuration this registry enforces.
    pub fn config(&self) -> TenantConfig {
        self.config
    }

    /// Registered tenant ids, sorted.
    pub fn tenant_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.tenants.keys().cloned().collect();
        ids.sort();
        ids
    }

    pub(crate) fn lookup(&self, id: &str) -> Option<&Arc<Tenant>> {
        self.tenants.get(id)
    }

    /// Locks the cache, recovering the guard if a thread panicked while
    /// holding it (`serve.keycache.poison_recovered`). Every critical
    /// section below leaves [`CacheState`] valid at each step — an entry is
    /// in `resident` and `order` or in neither, and `bytes` moves with it —
    /// and no checksum or key copy runs under the lock, so there is nothing
    /// half-done for a panic to leave behind: one dead worker must not
    /// take the registry, and with it every tenant, down with it.
    fn lock_cache(&self) -> MutexGuard<'_, CacheState> {
        self.cache.lock().unwrap_or_else(|poisoned| {
            self.cache.clear_poison();
            self.poison_recovered.fetch_add(1, Ordering::Relaxed);
            wd_trace::counter("serve.keycache.poison_recovered", 1);
            poisoned.into_inner()
        })
    }

    /// Leases `tenant`'s key material for one batch execution, through the
    /// resident LRU cache. When `reads_keys` is set (the batch has an op
    /// that reads a key), a hit **verifies the resident checksum** against
    /// the registration reference and returns the resident copy; a
    /// mismatch quarantines the entry and falls through to the miss path.
    /// A hit for a batch that reads no key counts the hit and refreshes
    /// recency without hashing a byte. A miss re-verifies and promotes the
    /// cold copy (evicting least-recently-used tenants until the budget
    /// holds) — either way every key byte an op reads is checksum-verified
    /// cold-copy bytes, so neither churn nor corruption can change a
    /// result.
    ///
    /// The cache mutex guards bookkeeping only: the resident `Arc` is
    /// cloned under it, then every checksum (and the cold copy's clone on a
    /// miss) runs with it released, so one tenant's 62 ms SET-C verify
    /// never stalls another tenant's lease. The lock is re-taken to refresh
    /// recency, to quarantine, or to promote; each of those re-checks what
    /// it finds, because another lease may have got there first.
    ///
    /// # Errors
    ///
    /// [`WdError::IntegrityViolation`] when the *cold* (authoritative)
    /// copy fails its own checksum — there is no intact source left to
    /// reload from, so the lease (not the process) fails.
    pub(crate) fn lease_keys(
        &self,
        tenant: &Tenant,
        reads_keys: bool,
    ) -> Result<Arc<ServeKeys>, WdError> {
        let resident = {
            let mut st = self.lock_cache();
            // Reconcile over-budget residue first. An oversized tenant is
            // allowed residency for the lease that promoted it, but must
            // not be re-counted as a hit forever after — its own next lease
            // (or anyone else's) evicts it here and goes through the miss
            // path.
            self.evict_to_fit(&mut st, 0);
            st.resident.get(&tenant.id).map(|r| Arc::clone(&r.keys))
        };
        if let Some(keys) = resident {
            let verified = if reads_keys {
                self.verify_resident(tenant, &keys)
            } else {
                Ok(())
            };
            match verified {
                Ok(()) => {
                    // Refresh recency: move to the back (most recently
                    // used), unless the entry was evicted meanwhile.
                    let mut st = self.lock_cache();
                    if let Some(i) = st.order.iter().position(|t| *t == tenant.id) {
                        let id = st.order.remove(i);
                        st.order.push(id);
                    }
                    drop(st);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    wd_trace::counter("serve.keycache.hits", 1);
                    return Ok(keys);
                }
                Err(got) => self.quarantine(tenant, &keys, got),
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        wd_trace::counter("serve.keycache.misses", 1);
        // The reload source must itself be intact: a cold copy failing its
        // checksum has no intact fallback and must not be served.
        if self.config.verify_keys {
            let got = tenant.cold.checksum();
            if got != tenant.cold_checksum {
                return Err(WdError::IntegrityViolation {
                    what: format!("keycache cold copy for tenant {:?}", tenant.id),
                    expected: tenant.cold_checksum,
                    got,
                });
            }
        }
        // The modeled host→device upload: clone the cold copy resident.
        let keys = Arc::new(tenant.cold.clone());
        let mut st = self.lock_cache();
        if let Some(r) = st.resident.get(&tenant.id) {
            // A concurrent lease promoted this tenant while we verified:
            // its copy is the same verified cold bytes and already charged.
            return Ok(Arc::clone(&r.keys));
        }
        // Evict from the LRU front until the new entry fits.
        self.evict_to_fit(&mut st, tenant.key_bytes);
        if tenant.key_bytes > self.config.key_cache_bytes {
            wd_trace::warn(
                "serve.keycache",
                &format!(
                    "tenant {:?} keys ({} bytes) exceed the whole cache budget ({} bytes); \
                     serving anyway, evicted on next miss",
                    tenant.id, tenant.key_bytes, self.config.key_cache_bytes
                ),
            );
        }
        // Record the exact charge so the later refund matches it.
        st.bytes += tenant.key_bytes;
        st.resident.insert(
            tenant.id.clone(),
            Resident {
                keys: Arc::clone(&keys),
                charged: tenant.key_bytes,
            },
        );
        st.order.push(tenant.id.clone());
        wd_trace::gauge("serve.keycache.resident_bytes", st.bytes as u64);
        Ok(keys)
    }

    /// Quarantine: drops the resident entry whose checksum read `got` (not
    /// an eviction — those are capacity accounting) so the caller's miss
    /// path reloads from cold. The entry is dropped only if it is still the
    /// copy that failed: a concurrent lease may already have quarantined
    /// and replaced it, and the replacement is intact.
    fn quarantine(&self, tenant: &Tenant, failed: &Arc<ServeKeys>, got: u64) {
        let mut st = self.lock_cache();
        if st
            .resident
            .get(&tenant.id)
            .is_some_and(|r| Arc::ptr_eq(&r.keys, failed))
        {
            if let Some(i) = st.order.iter().position(|t| *t == tenant.id) {
                st.order.remove(i);
            }
            if let Some(gone) = st.resident.remove(&tenant.id) {
                st.refund(gone.charged);
            }
        }
        drop(st);
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        wd_trace::counter("serve.keycache.quarantined", 1);
        wd_trace::event(
            "serve.guard",
            "keycache.quarantine",
            &[
                ("tenant", tenant.id.clone()),
                ("kind", FaultKind::CorruptedKey.to_string()),
                ("expected", format!("{:#018x}", tenant.cold_checksum)),
                ("got", format!("{got:#018x}")),
            ],
        );
        wd_trace::warn(
            "serve.guard",
            &format!(
                "quarantined resident keys for tenant {:?} ({}); \
                 reloading from the cold copy",
                tenant.id,
                FaultKind::CorruptedKey
            ),
        );
    }

    /// Verifies a resident entry on a hit: `Ok(())` when the checksum
    /// matches (or verification is off), `Err(got)` with the mismatching
    /// sum. An armed corruption drill ([`TenantRegistry::arm_key_corruption`])
    /// reports a simulated mismatch without touching the (intact) bytes.
    fn verify_resident(&self, tenant: &Tenant, keys: &ServeKeys) -> Result<(), u64> {
        if !self.config.verify_keys {
            return Ok(());
        }
        let armed = self
            .corrupt_arm
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
            .is_ok();
        if armed {
            // The drill's "observed" sum: a single flipped bit.
            return Err(tenant.cold_checksum ^ 1);
        }
        let got = keys.checksum();
        if got == tenant.cold_checksum {
            Ok(())
        } else {
            Err(got)
        }
    }

    /// Evicts from the LRU front until `incoming` more bytes would fit in
    /// the budget (`incoming == 0` = reconcile existing residue only).
    fn evict_to_fit(&self, st: &mut CacheState, incoming: usize) {
        while st.bytes + incoming > self.config.key_cache_bytes && !st.order.is_empty() {
            let victim = st.order.remove(0);
            if let Some(gone) = st.resident.remove(&victim) {
                st.refund(gone.charged);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                wd_trace::counter("serve.keycache.evictions", 1);
                wd_trace::event(
                    "serve",
                    "keycache.evict",
                    &[("tenant", victim), ("bytes", gone.charged.to_string())],
                );
            }
        }
    }

    /// A snapshot of the cache counters.
    pub fn cache_stats(&self) -> KeyCacheStats {
        let st = self.lock_cache();
        KeyCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            poison_recovered: self.poison_recovered.load(Ordering::Relaxed),
            resident_bytes: st.bytes,
            budget_bytes: self.config.key_cache_bytes,
        }
    }
}

/// Validates a tenant id: 1..=[`MAX_LABEL_BYTES`] bytes of `[A-Za-z0-9._-]`
/// (the id appears verbatim in wire frames and trace signal names).
pub fn validate_tenant_id(id: &str) -> Result<(), WdError> {
    if id.is_empty() || id.len() > MAX_LABEL_BYTES {
        return Err(WdError::InvalidParams(format!(
            "tenant id must be 1..={MAX_LABEL_BYTES} bytes, got {} bytes",
            id.len()
        )));
    }
    if let Some(c) = id
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')))
    {
        return Err(WdError::InvalidParams(format!(
            "tenant id {id:?} contains {c:?}; allowed: [A-Za-z0-9._-]"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wd_ckks::ParamSet;

    fn ctx(seed: u64) -> Arc<CkksContext> {
        let params = ParamSet::set_a()
            .with_degree(1 << 6)
            .build()
            .expect("params");
        Arc::new(CkksContext::with_seed(params, seed).expect("ctx"))
    }

    fn keys_for(ctx: &CkksContext) -> ServeKeys {
        ServeKeys::with_relin(ctx.keygen().relin)
    }

    #[test]
    fn tenant_id_validation() {
        for ok in ["a", "alice", "t-0_9.bulk", &"x".repeat(MAX_LABEL_BYTES)] {
            assert!(validate_tenant_id(ok).is_ok(), "{ok:?}");
        }
        for bad in [
            "",
            " ",
            "a b",
            "a/b",
            "ünïcode",
            &"x".repeat(MAX_LABEL_BYTES + 1),
        ] {
            assert!(validate_tenant_id(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn register_rejects_duplicates_and_bad_ids() {
        let c = ctx(1);
        let mut reg = TenantRegistry::new(TenantConfig::default());
        reg.register("alice", Arc::clone(&c), ServeKeys::none())
            .expect("first registration");
        assert!(matches!(
            reg.register("alice", Arc::clone(&c), ServeKeys::none()),
            Err(WdError::InvalidParams(_))
        ));
        assert!(reg.register("", c, ServeKeys::none()).is_err());
    }

    #[test]
    fn lru_cache_hits_misses_and_evicts_by_byte_budget() {
        let c = ctx(2);
        let per_tenant = keys_for(&c).bytes();
        assert!(per_tenant > 0, "relin key must have a footprint");
        // Budget for exactly two resident tenants.
        let mut reg = TenantRegistry::new(TenantConfig {
            key_cache_bytes: 2 * per_tenant,
            ..TenantConfig::default()
        });
        for id in ["a", "b", "c"] {
            reg.register(id, Arc::clone(&c), keys_for(&c)).expect(id);
        }
        let lease = |reg: &TenantRegistry, id: &str| {
            let t = reg.lookup(id).expect("registered").clone();
            reg.lease_keys(&t, true).expect("intact keys lease")
        };
        lease(&reg, "a"); // miss
        lease(&reg, "b"); // miss
        lease(&reg, "a"); // hit, refreshes a's recency
        lease(&reg, "c"); // miss, evicts b (LRU)
        lease(&reg, "b"); // miss again: b was evicted
        let s = reg.cache_stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 4, 2));
        assert!(s.resident_bytes <= s.budget_bytes);
    }

    #[test]
    fn refunds_release_the_charged_bytes_even_when_the_footprint_drifts() {
        // Promote charges `tenant.key_bytes` (the registration snapshot);
        // the old quarantine/evict paths refunded `gone.bytes()`
        // (the resident copy's current footprint). Grow a tenant's cold
        // keys after registration so the two disagree, then drive both
        // refund sites: with the recorded-charge refund the books net to
        // zero; the old spelling underflowed `bytes` here.
        let c = ctx(11);
        let small = keys_for(&c);
        let charge = small.bytes();
        assert!(charge > 0);
        let mut reg = TenantRegistry::new(TenantConfig {
            key_cache_bytes: charge, // exactly one registration-sized tenant
            ..TenantConfig::default()
        });
        reg.register("t", Arc::clone(&c), small)
            .expect("register t");
        reg.register("u", Arc::clone(&c), keys_for(&c))
            .expect("register u");
        {
            // Test-only surgery: swell t's cold keys post-registration,
            // keeping its integrity reference honest.
            let kp = c.keygen();
            let rot = c.gen_rotation_keys(&kp.secret, &[1], false);
            let t = reg.tenants.get_mut("t").expect("registered");
            let t = Arc::get_mut(t).expect("no other refs yet");
            t.cold = t.cold.clone().and_rotations(rot);
            t.cold_checksum = t.cold.checksum();
            assert!(
                t.cold.bytes() > charge,
                "surgery must grow the footprint past the recorded charge"
            );
        }
        let t = reg.lookup("t").expect("registered").clone();
        let u = reg.lookup("u").expect("registered").clone();
        let leased = reg.lease_keys(&t, true).expect("promote t");
        assert!(leased.bytes() > charge, "resident copy is the grown one");
        assert_eq!(
            reg.cache_stats().resident_bytes,
            charge,
            "the charge is the registration snapshot, not the grown footprint"
        );
        // Eviction refund: u's miss evicts t; the books come back to
        // exactly u's charge instead of underflowing by the grown bytes.
        reg.lease_keys(&u, true).expect("promote u");
        let s = reg.cache_stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.resident_bytes, u.key_bytes);
        // Quarantine refund: re-promote t (evicting u), then arm a
        // checksum mismatch on the next hit. The quarantine releases the
        // recorded charge and the reload re-charges it — net zero.
        reg.lease_keys(&t, true).expect("re-promote t");
        reg.arm_key_corruption(1);
        wd_trace::take_warnings();
        reg.lease_keys(&t, true)
            .expect("quarantine repairs the lease");
        let s = reg.cache_stats();
        assert_eq!(s.quarantined, 1);
        assert_eq!(
            s.resident_bytes, charge,
            "quarantine + reload must leave the books exactly one charge"
        );
    }

    #[test]
    fn oversized_tenant_still_serves_with_a_warning() {
        let c = ctx(3);
        let keys = keys_for(&c);
        let mut reg = TenantRegistry::new(TenantConfig {
            key_cache_bytes: 1, // nothing fits
            ..TenantConfig::default()
        });
        reg.register("big", Arc::clone(&c), keys).expect("register");
        wd_trace::take_warnings();
        let t = reg.lookup("big").expect("registered").clone();
        let leased = reg.lease_keys(&t, true).expect("lease");
        assert!(leased.relin.is_some(), "lease must serve the cold copy");
        assert!(
            wd_trace::take_warnings()
                .iter()
                .any(|w| w.site == "serve.keycache" && w.message.contains("big")),
            "oversized residency must warn"
        );
        // A second tenant's miss evicts the oversized one.
        let mut reg2 = TenantRegistry::new(TenantConfig {
            key_cache_bytes: 1,
            ..TenantConfig::default()
        });
        reg2.register("big", Arc::clone(&c), keys_for(&c)).unwrap();
        reg2.register("next", Arc::clone(&c), keys_for(&c)).unwrap();
        let big = reg2.lookup("big").unwrap().clone();
        let next = reg2.lookup("next").unwrap().clone();
        reg2.lease_keys(&big, true).expect("lease big");
        reg2.lease_keys(&next, true).expect("lease next");
        assert_eq!(reg2.cache_stats().evictions, 1);
    }

    #[test]
    fn leased_keys_are_bit_identical_to_the_cold_copy_across_churn() {
        let c = ctx(4);
        let cold = keys_for(&c);
        let cold_relin = cold.relin.clone().expect("relin");
        let mut reg = TenantRegistry::new(TenantConfig {
            key_cache_bytes: 1,
            ..TenantConfig::default()
        });
        reg.register("t", Arc::clone(&c), cold).expect("register");
        let t = reg.lookup("t").expect("registered").clone();
        for _ in 0..3 {
            // Force churn: every lease under a 1-byte budget re-promotes.
            let leased = reg.lease_keys(&t, true).expect("lease");
            assert_eq!(leased.relin.as_ref(), Some(&cold_relin));
        }
        assert_eq!(reg.cache_stats().hits, 0, "1-byte budget never hits");
    }

    #[test]
    fn stats_account_the_request_lifecycle() {
        let t = Tenant::new("t", ctx(5), ServeKeys::none(), &TenantConfig::default());
        t.note_enqueued();
        t.note_enqueued();
        t.note_rejected();
        t.note_shed(10);
        t.note_completed(42, 52, true);
        assert_eq!(
            t.stats(),
            TenantStats {
                enqueued: 2,
                completed: 1,
                shed: 1,
                rejected: 1,
                breaker_shed: 0,
                in_flight: 0,
            }
        );
    }

    #[test]
    fn armed_corruption_quarantines_then_reloads_from_cold() {
        let c = ctx(6);
        let cold = keys_for(&c);
        let cold_relin = cold.relin.clone().expect("relin");
        let mut reg = TenantRegistry::new(TenantConfig::default());
        reg.register("t", Arc::clone(&c), cold).expect("register");
        let t = reg.lookup("t").expect("registered").clone();
        reg.lease_keys(&t, true).expect("first lease promotes"); // miss
        reg.lease_keys(&t, true).expect("verified hit"); // hit
        reg.arm_key_corruption(1);
        wd_trace::take_warnings();
        // The armed hit quarantines and reloads; the served bytes are the
        // intact cold copy either way.
        let leased = reg
            .lease_keys(&t, true)
            .expect("quarantine repairs the lease");
        assert_eq!(leased.relin.as_ref(), Some(&cold_relin));
        let s = reg.cache_stats();
        assert_eq!(
            (s.hits, s.misses, s.quarantined, s.evictions),
            (1, 2, 1, 0),
            "quarantine is its own counter, not an eviction"
        );
        assert!(
            wd_trace::take_warnings()
                .iter()
                .any(|w| w.site == "serve.guard" && w.message.contains("quarantined")),
            "quarantine must warn at serve.guard"
        );
        // The reload is verified and resident again: the next lease hits.
        reg.lease_keys(&t, true).expect("post-repair hit");
        assert_eq!(reg.cache_stats().hits, 2);
    }

    #[test]
    fn keyless_leases_count_hits_without_checksumming_or_consuming_the_arm() {
        let c = ctx(14);
        let cold = keys_for(&c);
        let cold_relin = cold.relin.clone().expect("relin");
        let mut reg = TenantRegistry::new(TenantConfig::default());
        reg.register("t", Arc::clone(&c), cold).expect("register");
        let t = reg.lookup("t").expect("registered").clone();
        // A keyless miss still fills the cache from the verified cold copy.
        reg.lease_keys(&t, false).expect("miss");
        // Flip a bit in the resident copy itself: a lease that hashed it
        // would quarantine.
        {
            let mut st = reg.lock_cache();
            let r = st.resident.get_mut("t").expect("resident");
            let mut flipped = (*r.keys).clone();
            flipped.relin.as_mut().expect("relin").digits[0]
                .b
                .limb_mut(0)[0] ^= 1;
            r.keys = Arc::new(flipped);
        }
        reg.arm_key_corruption(1);
        for _ in 0..2 {
            let leased = reg.lease_keys(&t, false).expect("keyless hit");
            assert_ne!(
                leased.relin.as_ref(),
                Some(&cold_relin),
                "no checksum ran: the flipped resident copy was not caught"
            );
        }
        let s = reg.cache_stats();
        assert_eq!((s.hits, s.misses, s.quarantined), (2, 1, 0));
        assert_eq!(
            reg.corrupt_arm.load(Ordering::Relaxed),
            1,
            "the arm waits for a lease that reads the keys"
        );
        // The next lease that reads the keys consumes the arm, quarantines
        // the flipped resident copy and serves the reloaded cold one.
        wd_trace::take_warnings();
        let leased = reg.lease_keys(&t, true).expect("quarantine repairs");
        assert_eq!(leased.relin.as_ref(), Some(&cold_relin));
        let s = reg.cache_stats();
        assert_eq!((s.hits, s.misses, s.quarantined), (2, 2, 1));
        assert_eq!(reg.corrupt_arm.load(Ordering::Relaxed), 0);
        let leased = reg.lease_keys(&t, true).expect("verified hit");
        assert_eq!(leased.relin.as_ref(), Some(&cold_relin));
        assert_eq!(reg.cache_stats().hits, 3);
    }

    #[test]
    fn a_poisoned_cache_mutex_is_recovered_and_counted() {
        let c = ctx(12);
        let mut reg = TenantRegistry::new(TenantConfig::default());
        reg.register("t", Arc::clone(&c), keys_for(&c))
            .expect("register");
        let reg = Arc::new(reg);
        let t = reg.lookup("t").expect("registered").clone();
        reg.lease_keys(&t, true).expect("promote");
        // A worker dies while holding the cache lock.
        let poisoner = {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                let _held = reg.cache.lock().expect("first holder");
                panic!("worker dies holding the key cache");
            })
        };
        assert!(poisoner.join().is_err(), "the poisoner must have panicked");
        assert!(reg.cache.is_poisoned());
        // Another thread still leases: the registry outlives the worker.
        let leased = {
            let (reg, t) = (Arc::clone(&reg), Arc::clone(&t));
            std::thread::spawn(move || reg.lease_keys(&t, true))
                .join()
                .expect("the lease must not panic")
        };
        assert!(leased.expect("lease after poisoning").relin.is_some());
        let s = reg.cache_stats();
        assert_eq!((s.hits, s.misses, s.poison_recovered), (1, 1, 1));
        assert_eq!(s.resident_bytes, t.key_bytes, "the books survived");
        // Recovery clears the poison: later leases do not count again.
        reg.lease_keys(&t, true).expect("steady state");
        assert_eq!(reg.cache_stats().poison_recovered, 1);
    }

    #[test]
    fn concurrent_leases_keep_the_books_exact() {
        const THREADS: usize = 8;
        const LEASES: usize = 40;
        const ARMED: u64 = 7;
        let c = ctx(13);
        let mut reg = TenantRegistry::new(TenantConfig::default());
        let mut cold = Vec::new();
        for id in ["a", "b"] {
            let keys = keys_for(&c);
            cold.push(keys.relin.clone().expect("relin"));
            reg.register(id, Arc::clone(&c), keys).expect(id);
        }
        let tenants = ["a", "b"].map(|id| reg.lookup(id).expect("registered").clone());
        reg.arm_key_corruption(ARMED);
        wd_trace::take_warnings();
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for i in 0..THREADS {
                let (reg, tenants, cold, start) = (&reg, &tenants, &cold, &start);
                scope.spawn(move || {
                    start.wait();
                    for j in 0..LEASES {
                        let which = (i + j) % 2;
                        let leased = reg.lease_keys(&tenants[which], true).expect("lease");
                        assert_eq!(leased.relin.as_ref(), Some(&cold[which]));
                    }
                });
            }
        });
        let s = reg.cache_stats();
        assert_eq!(s.hits + s.misses, (THREADS * LEASES) as u64);
        assert_eq!(s.quarantined, ARMED, "every armed verify quarantines once");
        assert_eq!(s.evictions, 0);
        assert_eq!(
            s.resident_bytes,
            tenants[0].key_bytes + tenants[1].key_bytes,
            "both tenants resident, each charged exactly once"
        );
    }

    /// The cache charges a key set exactly the bytes its slabs hold:
    /// `dnum × 2 × limbs × N × 4` for the relin key of each full-size
    /// Table VI set that a server is benchmarked at.
    #[test]
    fn the_charge_is_the_resident_slab_size_at_sets_a_b_c() {
        for set in [ParamSet::set_a(), ParamSet::set_b(), ParamSet::set_c()] {
            let c = Arc::new(CkksContext::with_seed(set.build().expect("params"), 3).expect("ctx"));
            let keys = keys_for(&c);
            let relin = keys.relin.as_ref().expect("relin");
            let slabs: usize = relin
                .digits
                .iter()
                .map(|d| std::mem::size_of_val(d.b.words()) + std::mem::size_of_val(d.a.words()))
                .sum();
            let p = c.params();
            let shape = relin.dnum() * 2 * (p.q_chain().len() + p.p_chain().len()) * p.degree() * 4;
            assert_eq!((keys.bytes(), slabs), (shape, shape), "{}", set.name);
            let mut reg = TenantRegistry::new(TenantConfig::default());
            reg.register("t", Arc::clone(&c), keys).expect("register");
            let t = reg.lookup("t").expect("registered").clone();
            reg.lease_keys(&t, false).expect("fill");
            assert_eq!(reg.cache_stats().resident_bytes, shape, "{}", set.name);
        }
    }

    #[test]
    fn a_real_bit_flip_changes_the_checksum() {
        let c = ctx(7);
        let cold = keys_for(&c);
        let reference = cold.checksum();
        let mut flipped = cold.clone();
        let relin = flipped.relin.as_mut().expect("relin");
        relin.digits[0].b.limb_mut(0)[0] ^= 1;
        assert_ne!(
            flipped.checksum(),
            reference,
            "a one-bit flip in a limb word must change the key checksum"
        );
        assert_eq!(cold.checksum(), reference, "checksum is deterministic");
    }

    #[test]
    fn corrupted_cold_copy_fails_the_lease_with_a_typed_error() {
        // Build a registry whose *cold* copy is corrupted after
        // registration: there is no intact source left, so the lease must
        // surface IntegrityViolation instead of serving corrupt bytes.
        let c = ctx(8);
        let mut reg = TenantRegistry::new(TenantConfig::default());
        reg.register("t", Arc::clone(&c), keys_for(&c))
            .expect("register");
        {
            // Corrupt the cold copy in place through the registry's own
            // storage (test-only surgery via Arc::get_mut).
            let t = reg.tenants.get_mut("t").expect("registered");
            let t = Arc::get_mut(t).expect("no other refs yet");
            let relin = t.cold.relin.as_mut().expect("relin");
            relin.digits[0].b.limb_mut(0)[0] ^= 1;
        }
        let t = reg.lookup("t").expect("registered").clone();
        match reg.lease_keys(&t, true) {
            Err(WdError::IntegrityViolation {
                what,
                expected,
                got,
            }) => {
                assert!(what.contains("cold copy"), "{what}");
                assert_ne!(expected, got);
            }
            other => panic!("expected IntegrityViolation, got {other:?}"),
        }
        // With verification off the same lease serves (the pre-PR 7
        // behavior, kept reachable for A/B overhead measurement).
        let mut reg2 = TenantRegistry::new(TenantConfig {
            verify_keys: false,
            ..TenantConfig::default()
        });
        reg2.register("t", Arc::clone(&c), keys_for(&c))
            .expect("register");
        let t2 = reg2.lookup("t").expect("registered").clone();
        reg2.arm_key_corruption(5); // no-op while verification is off
        reg2.lease_keys(&t2, true).expect("unverified lease");
        reg2.lease_keys(&t2, true).expect("unverified hit");
        assert_eq!(reg2.cache_stats().quarantined, 0);
    }

    #[test]
    fn tenant_breaker_trips_sheds_and_recovers() {
        use crate::breaker::BreakerConfig;
        use std::time::Duration;
        let config = TenantConfig {
            breaker: Some(BreakerConfig {
                window: 2,
                threshold_pct: 100,
                cooldown: Duration::from_micros(1_000),
                probes: 1,
            }),
            ..TenantConfig::default()
        };
        let t = Tenant::new("t", ctx(9), ServeKeys::none(), &config);
        assert_eq!(t.breaker_state(), Some(BreakerState::Closed));
        // Two failures fill the window and trip the breaker.
        for now in [10, 20] {
            t.breaker_admit(now).expect("closed admits");
            t.note_enqueued();
            t.note_completed(1, now, false);
        }
        assert_eq!(t.breaker_state(), Some(BreakerState::Open));
        // Open: refused with a retry hint; accounting lands in
        // breaker_shed AND rejected.
        let retry = t.breaker_admit(30).expect_err("open refuses");
        assert!(retry > 0);
        assert_eq!(t.stats().breaker_shed, 1);
        assert_eq!(t.stats().rejected, 1);
        // After the cooldown one probe is admitted; success closes.
        t.breaker_admit(2_000).expect("half-open probe");
        assert_eq!(t.breaker_state(), Some(BreakerState::HalfOpen));
        t.note_enqueued();
        t.note_completed(1, 2_001, true);
        assert_eq!(t.breaker_state(), Some(BreakerState::Closed));
        // Breakers off: admit always succeeds, state is None.
        let plain = Tenant::new("p", ctx(10), ServeKeys::none(), &TenantConfig::default());
        assert_eq!(plain.breaker_state(), None);
        plain.breaker_admit(0).expect("no breaker");
    }
}
