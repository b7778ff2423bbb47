//! Reusable scratch arena for the host hot path (§IV-D-1 host analogue).
//!
//! Every hot CKKS op (hmult, keyswitch, rescale, rotation) and the batch
//! kernels under [`crate::par`] / [`crate::fourstep`] need short-lived limb
//! slabs: digit extensions, base-conversion accumulators, NTT transpose
//! scratch. Allocating those fresh per op puts `malloc`/`free` plus page
//! zeroing on the critical path of every ciphertext operation. A
//! [`ScratchArena`] instead *leases* slabs: a [`ScratchVec`] is checked out,
//! used, and returned to the arena on drop (RAII), so steady-state execution
//! performs **zero** heap allocations per op for scratch — the same
//! discipline the paper's §IV-D-1 device memory pool applies on the GPU,
//! sized from the same `S_max` bound (see `warpdrive_core::arena` for the
//! sizing glue).
//!
//! Ownership rule: **one arena per worker thread, never shared across the
//! thread budget.** The arena is internally synchronized (so sharing is
//! *safe*, merely contended); schedulers install a per-worker arena with
//! [`with_worker_arena`] and the compute layer picks it up via
//! [`worker_arena`] / [`lease`].
//!
//! Retention model (leak-proof by construction): the byte cap bounds what
//! the arena *retains* (parked slabs), never what callers may hold live.
//! A lease is served from a parked slab of the exact size when one exists
//! (`reuse`); otherwise it is heap-allocated — counted `fresh` when the cap
//! could retain it afterwards, `fallback` when the retention budget is
//! already exhausted, `bypass` when the arena is disabled (cap 0). Returned
//! slabs that no longer fit under the cap are simply dropped, so an
//! error/panic path that loses a buffer costs one heap free, never arena
//! capacity. The fallback ladder is therefore: parked slab → fresh heap
//! (retained on return) → plain heap (dropped on return) — correctness
//! never depends on the arena.
//!
//! Determinism: leased slabs are zero-filled before handout, so a leased
//! buffer is bit-identical to a fresh `vec![0u64; len]` and results cannot
//! depend on what a previous op left behind.
//!
//! Trace signals (when `WD_TRACE` is on): `arena.lease`, `arena.reuse`,
//! `arena.fresh`, `arena.fallback`, `arena.bypass` — or the same five
//! suffixes under another prefix for an arena built with
//! [`ScratchArena::named`], so a second pool never moves these counts.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Snapshot of one arena's lease accounting (monotonic counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Total leases handed out (reuses + fresh + fallbacks + bypasses).
    pub leases: u64,
    /// Leases satisfied by a recycled slab (the steady-state path).
    pub reuses: u64,
    /// Heap allocations the retention budget will park on return (warm-up).
    pub fresh: u64,
    /// Heap allocations past the retention budget (arena exhausted).
    pub fallbacks: u64,
    /// Leases served by a disabled arena (cap 0) — the A/B "fresh
    /// allocation" reference path.
    pub bypasses: u64,
}

impl ArenaStats {
    /// Heap allocations implied by this snapshot (everything that was not a
    /// recycled slab).
    pub fn heap_allocs(&self) -> u64 {
        self.fresh + self.fallbacks + self.bypasses
    }
}

#[derive(Default)]
struct Shelves {
    /// Parked slabs keyed by exact length (in u64 words). Hot-path lease
    /// sizes are drawn from a handful of shapes (n, limb slabs, digit
    /// widths), so exact-size bucketing reuses perfectly without splitting.
    by_len: HashMap<usize, Vec<Vec<u64>>>,
    /// Bytes currently parked on the shelves (the capped quantity).
    parked_bytes: u64,
}

/// A bucketed, byte-capped pool of reusable `u64` slabs.
///
/// See the [module docs](self) for the ownership rule and fallback ladder.
pub struct ScratchArena {
    cap_bytes: u64,
    /// The trace counter names: lease, reuse, fresh, fallback, bypass.
    names: [String; 5],
    shelves: Mutex<Shelves>,
    leases: AtomicU64,
    reuses: AtomicU64,
    fresh: AtomicU64,
    fallbacks: AtomicU64,
    bypasses: AtomicU64,
}

impl std::fmt::Debug for ScratchArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchArena")
            .field("cap_bytes", &self.cap_bytes)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ScratchArena {
    /// Default per-worker capacity when no parameter-derived size is given:
    /// 64 MiB, enough for the deepest table-VI keyswitch working set.
    pub const DEFAULT_WORKER_BYTES: u64 = 64 << 20;

    /// New arena retaining at most `cap_bytes` of parked slabs.
    pub fn with_capacity(cap_bytes: u64) -> Arc<Self> {
        Self::named(cap_bytes, "arena")
    }

    /// An arena like [`ScratchArena::with_capacity`] whose trace counters
    /// are `{prefix}.lease`, `{prefix}.reuse` and so on: a pool with a job
    /// of its own reports apart from the compute arenas.
    pub fn named(cap_bytes: u64, prefix: &str) -> Arc<Self> {
        let names =
            ["lease", "reuse", "fresh", "fallback", "bypass"].map(|c| format!("{prefix}.{c}"));
        Arc::new(Self {
            cap_bytes,
            names,
            shelves: Mutex::new(Shelves::default()),
            leases: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            fresh: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
        })
    }

    /// Arena with the default per-worker capacity.
    pub fn for_worker() -> Arc<Self> {
        Self::with_capacity(Self::DEFAULT_WORKER_BYTES)
    }

    /// A disabled arena (capacity 0): every lease is a plain heap
    /// allocation, counted as a bypass. This is the fresh-allocation
    /// reference path for A/B benchmarking — behaviorally identical, with
    /// the pre-arena allocation discipline.
    pub fn disabled() -> Arc<Self> {
        Self::with_capacity(0)
    }

    /// The byte cap this arena was built with.
    pub fn capacity_bytes(&self) -> u64 {
        self.cap_bytes
    }

    /// Lease a zero-filled slab of exactly `len` words, RAII-returned on
    /// drop. Never fails: see the module docs for the fallback ladder.
    pub fn lease(self: &Arc<Self>, len: usize) -> ScratchVec {
        ScratchVec {
            buf: self.take_vec(len),
            home: Some(Arc::clone(self)),
        }
    }

    /// Non-RAII form of [`ScratchArena::lease`]: a zero-filled `Vec<u64>`
    /// the caller may move into owning storage (e.g. `Poly::from_coeffs`)
    /// and later return with [`ScratchArena::give_vec`]. Losing the vector
    /// (error path, panic) costs a heap free, never arena capacity.
    pub fn take_vec(&self, len: usize) -> Vec<u64> {
        match self.take_parked(len) {
            Some(mut buf) => {
                debug_assert_eq!(buf.len(), len);
                buf.fill(0);
                buf
            }
            None => vec![0u64; len],
        }
    }

    /// [`ScratchArena::take_vec`] for a writer that fills every word: an
    /// empty vector with room for `len` words, so a recycled slab skips the
    /// zero-fill pass. The caller pushes exactly `len` words before handing
    /// it to [`ScratchArena::give_vec`], which shelves a slab by length.
    pub fn take_empty(&self, len: usize) -> Vec<u64> {
        match self.take_parked(len) {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => Vec::with_capacity(len),
        }
    }

    /// The accounting of one lease: a parked slab of exactly `len` words,
    /// or `None` when the caller must allocate (counted fresh, fallback or
    /// bypass as the module docs describe).
    fn take_parked(&self, len: usize) -> Option<Vec<u64>> {
        let [lease, reuse, fresh, fallback, bypass] = &self.names;
        self.leases.fetch_add(1, Ordering::Relaxed);
        if wd_trace::enabled() {
            wd_trace::counter(lease, 1);
        }
        if self.cap_bytes == 0 {
            self.bypasses.fetch_add(1, Ordering::Relaxed);
            if wd_trace::enabled() {
                wd_trace::counter(bypass, 1);
            }
            return None;
        }
        let bytes = (len as u64) * 8;
        let (recycled, retainable) = {
            let mut sh = self.shelves.lock().unwrap();
            match sh.by_len.get_mut(&len).and_then(Vec::pop) {
                Some(buf) => {
                    sh.parked_bytes -= bytes;
                    (Some(buf), true)
                }
                None => (None, sh.parked_bytes + bytes <= self.cap_bytes),
            }
        };
        let (count, name) = match (&recycled, retainable) {
            (Some(_), _) => (&self.reuses, reuse),
            (None, true) => (&self.fresh, fresh),
            (None, false) => (&self.fallbacks, fallback),
        };
        count.fetch_add(1, Ordering::Relaxed);
        if wd_trace::enabled() {
            wd_trace::counter(name, 1);
        }
        recycled
    }

    /// Return a slab previously obtained with [`ScratchArena::take_vec`]
    /// (or any same-shaped vector). Parked for reuse when it fits under the
    /// cap, dropped otherwise.
    pub fn give_vec(&self, buf: Vec<u64>) {
        if self.cap_bytes == 0 || buf.is_empty() {
            return;
        }
        let bytes = (buf.len() as u64) * 8;
        // Called from `Drop` impls: a poisoned lock drops the slab rather
        // than panic there.
        let Ok(mut sh) = self.shelves.lock() else {
            return;
        };
        if sh.parked_bytes + bytes <= self.cap_bytes {
            sh.parked_bytes += bytes;
            sh.by_len.entry(buf.len()).or_default().push(buf);
        }
    }

    /// Current lease accounting.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            leases: self.leases.load(Ordering::Relaxed),
            reuses: self.reuses.load(Ordering::Relaxed),
            fresh: self.fresh.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
        }
    }

    /// Bytes currently parked for reuse.
    pub fn parked_bytes(&self) -> u64 {
        self.shelves.lock().unwrap().parked_bytes
    }
}

/// A leased slab of `u64`s, zero-filled on handout, returned to its arena on
/// drop. Dereferences to `[u64]`; heap-fallback leases simply free on drop.
pub struct ScratchVec {
    buf: Vec<u64>,
    home: Option<Arc<ScratchArena>>,
}

impl ScratchVec {
    /// A plain heap-owned slab with no arena, for call sites that want one
    /// code path whether or not an arena is installed.
    pub fn heap(len: usize) -> Self {
        ScratchVec {
            buf: vec![0u64; len],
            home: None,
        }
    }

    /// Move the buffer out, detaching it from the arena (the words are
    /// permanently transferred to the caller).
    pub fn into_vec(mut self) -> Vec<u64> {
        self.home = None;
        std::mem::take(&mut self.buf)
    }
}

impl Deref for ScratchVec {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        &self.buf
    }
}

impl DerefMut for ScratchVec {
    fn deref_mut(&mut self) -> &mut [u64] {
        &mut self.buf
    }
}

impl Drop for ScratchVec {
    fn drop(&mut self) {
        if let Some(home) = self.home.take() {
            home.give_vec(std::mem::take(&mut self.buf));
        }
    }
}

thread_local! {
    static WORKER_ARENA: std::cell::RefCell<Vec<Arc<ScratchArena>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

struct ScopeGuard;

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        WORKER_ARENA.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Install `arena` as this thread's worker arena for the duration of `f`
/// (nestable; panic-safe). This is how schedulers hand each worker thread
/// its private arena without threading it through every call signature.
pub fn with_worker_arena<T>(arena: &Arc<ScratchArena>, f: impl FnOnce() -> T) -> T {
    WORKER_ARENA.with(|s| s.borrow_mut().push(Arc::clone(arena)));
    let _guard = ScopeGuard;
    f()
}

/// The arena installed on this thread by [`with_worker_arena`], if any.
/// Worker threads spawned *inside* the scope do not inherit it — each worker
/// must be handed its own arena, which is exactly the ownership rule.
pub fn worker_arena() -> Option<Arc<ScratchArena>> {
    WORKER_ARENA.with(|s| s.borrow().last().cloned())
}

/// Lease from this thread's worker arena, or from the heap when none is
/// installed — the compute-layer entry point for scratch.
pub fn lease(len: usize) -> ScratchVec {
    match worker_arena() {
        Some(arena) => arena.lease(len),
        None => ScratchVec::heap(len),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_is_zeroed_and_reused() {
        let arena = ScratchArena::with_capacity(1 << 20);
        {
            let mut a = arena.lease(100);
            a[0] = 42;
            a[99] = 7;
        }
        let b = arena.lease(100);
        assert!(b.iter().all(|&x| x == 0), "recycled slab must be zeroed");
        let st = arena.stats();
        assert_eq!((st.leases, st.fresh, st.reuses), (2, 1, 1));
        assert_eq!(st.heap_allocs(), 1);
    }

    #[test]
    fn distinct_sizes_get_distinct_slabs() {
        let arena = ScratchArena::with_capacity(1 << 20);
        drop(arena.lease(64));
        let _b = arena.lease(128); // different bucket: fresh
        let st = arena.stats();
        assert_eq!(st.fresh, 2);
        assert_eq!(st.reuses, 0);
    }

    #[test]
    fn exhaustion_falls_back_to_heap_and_still_works() {
        // Cap smaller than any slab: every lease is a heap fallback, and
        // nothing is retained on return.
        let arena = ScratchArena::with_capacity(64);
        let mut b = arena.lease(128);
        b[0] = 1;
        assert_eq!(b[0], 1);
        drop(b);
        drop(arena.lease(128));
        let st = arena.stats();
        assert_eq!(st.fallbacks, 2);
        assert_eq!(st.fresh + st.reuses, 0);
        assert_eq!(arena.parked_bytes(), 0, "over-cap returns are dropped");
    }

    #[test]
    fn over_cap_return_is_dropped_not_parked() {
        // One slab fits; a second identical one does not.
        let arena = ScratchArena::with_capacity(128 * 8);
        let a = arena.lease(128); // fresh (would be retainable)
        let b = arena.lease(128); // parked 0 + 1 KiB <= cap: fresh again
        drop(a); // parked
        drop(b); // 1 KiB parked + 1 KiB > cap: dropped
        assert_eq!(arena.stats().fresh, 2);
        assert_eq!(arena.parked_bytes(), 128 * 8);
        // Steady state from here: single live lease always reuses.
        drop(arena.lease(128));
        assert_eq!(arena.stats().reuses, 1);
    }

    #[test]
    fn disabled_arena_counts_bypasses() {
        let arena = ScratchArena::disabled();
        drop(arena.lease(64));
        drop(arena.lease(64));
        let st = arena.stats();
        assert_eq!(st.bypasses, 2);
        assert_eq!(st.reuses + st.fresh + st.fallbacks, 0);
        assert_eq!(st.heap_allocs(), 2);
        assert_eq!(arena.parked_bytes(), 0);
    }

    #[test]
    fn steady_state_has_zero_heap_allocs() {
        let arena = ScratchArena::with_capacity(1 << 20);
        // Warm-up: touch every shape once.
        for &len in &[64usize, 128, 256] {
            drop(arena.lease(len));
        }
        let warm = arena.stats();
        // Steady state: many ops over the same shapes.
        for _ in 0..50 {
            let a = arena.lease(64);
            let b = arena.lease(128);
            let c = arena.lease(256);
            drop((a, b, c));
        }
        let st = arena.stats();
        assert_eq!(
            st.heap_allocs() - warm.heap_allocs(),
            0,
            "steady-state leases must all be recycled"
        );
        assert_eq!(st.reuses, warm.reuses + 150);
    }

    #[test]
    fn take_give_round_trip_reuses_storage() {
        let arena = ScratchArena::with_capacity(1 << 20);
        let v = arena.take_vec(64);
        arena.give_vec(v);
        let w = arena.take_vec(64);
        assert!(w.iter().all(|&x| x == 0));
        let st = arena.stats();
        assert_eq!((st.fresh, st.reuses), (1, 1));
        // Losing a taken vec costs nothing: the next take is just fresh.
        drop(arena.take_vec(64));
        drop(arena.take_vec(64));
        assert_eq!(arena.stats().fresh, 3);
    }

    #[test]
    fn take_empty_shares_the_shelves_and_skips_the_fill() {
        let arena = ScratchArena::named(1 << 20, "test_pool");
        let v = arena.take_empty(64);
        assert!(v.is_empty() && v.capacity() >= 64);
        arena.give_vec(vec![7; 64]);
        let w = arena.take_empty(64);
        assert!(
            w.is_empty() && w.capacity() >= 64,
            "a recycled slab comes back cleared"
        );
        // Both take forms draw on the same slabs and the same books.
        arena.give_vec(vec![7; 64]);
        assert!(arena.take_vec(64).iter().all(|&x| x == 0));
        let st = arena.stats();
        assert_eq!((st.leases, st.fresh, st.reuses), (3, 1, 2));
    }

    #[test]
    fn worker_scope_installs_and_restores() {
        assert!(worker_arena().is_none());
        let arena = ScratchArena::with_capacity(1 << 16);
        with_worker_arena(&arena, || {
            let got = worker_arena().expect("installed");
            assert!(Arc::ptr_eq(&got, &arena));
            drop(lease(32));
            // Nested scope shadows, then restores.
            let inner = ScratchArena::disabled();
            with_worker_arena(&inner, || {
                assert!(Arc::ptr_eq(&worker_arena().unwrap(), &inner));
            });
            assert!(Arc::ptr_eq(&worker_arena().unwrap(), &arena));
        });
        assert!(worker_arena().is_none());
        assert_eq!(arena.stats().leases, 1);
    }

    #[test]
    fn lease_without_arena_uses_heap() {
        let mut v = lease(16);
        v[15] = 9;
        assert_eq!(v.len(), 16);
    }

    #[test]
    fn into_vec_detaches_from_arena() {
        let arena = ScratchArena::with_capacity(1 << 16);
        let v = arena.lease(8).into_vec();
        assert_eq!(v.len(), 8);
        assert_eq!(arena.parked_bytes(), 0);
    }

    #[test]
    fn concurrent_leases_are_disjoint() {
        let arena = ScratchArena::with_capacity(1 << 20);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let arena = Arc::clone(&arena);
                s.spawn(move || {
                    for i in 0..100u64 {
                        let mut v = arena.lease(64);
                        v.fill(t * 1000 + i);
                        assert!(v.iter().all(|&x| x == t * 1000 + i));
                    }
                });
            }
        });
        assert_eq!(arena.stats().leases, 400);
    }
}
