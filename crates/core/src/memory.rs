//! The GPU memory pool (paper §IV-D-1).
//!
//! WarpDrive allocates one pool up front to avoid per-kernel cudaMalloc
//! overhead. The pool size is `min(S_max, available)` where
//! `S_max = l·N·dnum·(l+k)·BS·w` — the worst-case working set of a batch of
//! ciphertexts mid-Keyswitch. [`MemoryPool`] models that pool as a
//! first-fit free-list allocator over byte offsets: a §IV-D-1 artifact,
//! functional and tested, that no host path allocates through. Host scratch
//! buffers come from [`ScratchArena`](wd_polyring::scratch::ScratchArena),
//! sized per worker by [`crate::arena`] (the host analogue of
//! `min(S_max, available)`).

use wd_fault::WdError;

/// Pool sizing per §IV-D-1.
///
/// `S_max = l × N × dnum × (l + k) × BS × w` bytes.
///
/// # Errors
///
/// Returns [`WdError::InvalidParams`] on degenerate parameters — any factor
/// of zero (`l`, `n`, `dnum`, `batch`, `word`, or an empty `l + k` basis)
/// would silently size the pool to 0 bytes, turning every later allocation
/// into an exhaustion failure far from the actual mistake — and on u128
/// overflow of the product (parameters that large are corrupt, not real).
pub fn s_max_bytes(
    l: usize,
    n: usize,
    dnum: usize,
    k: usize,
    batch: usize,
    word: usize,
) -> Result<u128, WdError> {
    let full = l
        .checked_add(k)
        .ok_or_else(|| WdError::InvalidParams("s_max: l + k overflows".into()))?;
    for (name, v) in [
        ("l", l),
        ("N", n),
        ("dnum", dnum),
        ("l + k", full),
        ("batch", batch),
        ("word", word),
    ] {
        if v == 0 {
            return Err(WdError::InvalidParams(format!(
                "s_max: degenerate parameter {name} = 0"
            )));
        }
    }
    [n, dnum, full, batch, word]
        .into_iter()
        .try_fold(l as u128, |acc, f| acc.checked_mul(f as u128))
        .ok_or_else(|| WdError::InvalidParams("s_max: product overflows u128".into()))
}

/// A first-fit pool allocator with block coalescing.
#[derive(Debug)]
pub struct MemoryPool {
    capacity: u64,
    /// Free blocks as (offset, size), sorted by offset.
    free: Vec<(u64, u64)>,
    high_water: u64,
    in_use: u64,
}

/// A pool allocation handle (offset + size). Freeing is explicit — GPU
/// memory pools do not run destructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// Byte offset within the pool.
    pub offset: u64,
    /// Allocation size in bytes.
    pub size: u64,
}

impl MemoryPool {
    /// Creates a pool of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            free: vec![(0, capacity)],
            high_water: 0,
            in_use: 0,
        }
    }

    /// Creates the pool §IV-D-1 would allocate: min(S_max, available).
    ///
    /// # Errors
    ///
    /// Propagates [`s_max_bytes`] validation errors.
    pub fn for_params(
        l: usize,
        n: usize,
        dnum: usize,
        k: usize,
        batch: usize,
        available: u64,
    ) -> Result<Self, WdError> {
        let s_max = s_max_bytes(l, n, dnum, k, batch, 4)?;
        Ok(Self::new(
            u64::try_from(s_max.min(u128::from(available))).unwrap_or(available),
        ))
    }

    /// Pool capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    /// Highest concurrent usage observed.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Allocates `size` bytes (256-byte aligned, like cudaMalloc).
    /// Returns `None` when no block fits.
    ///
    /// A zero-byte request succeeds without consuming pool space (cudaMalloc
    /// semantics): the returned handle has `size == 0` and freeing it is a
    /// no-op. Rounding zero up to a 256-byte block — what this allocator
    /// used to do — silently burned a block per empty-batch edge case.
    pub fn alloc(&mut self, size: u64) -> Option<Allocation> {
        if size == 0 {
            return Some(Allocation { offset: 0, size: 0 });
        }
        let size = size.div_ceil(256) * 256;
        let idx = self.free.iter().position(|&(_, s)| s >= size)?;
        let (off, s) = self.free[idx];
        if s == size {
            self.free.remove(idx);
        } else {
            self.free[idx] = (off + size, s - size);
        }
        self.in_use += size;
        self.high_water = self.high_water.max(self.in_use);
        Some(Allocation { offset: off, size })
    }

    /// Returns an allocation to the pool, coalescing adjacent free blocks.
    ///
    /// # Panics
    ///
    /// Panics on double free (overlapping with an existing free block).
    pub fn free(&mut self, a: Allocation) {
        // Zero-size handles come from `alloc(0)` and own no pool space.
        // Inserting one would create a zero-length free fragment: it can
        // never satisfy an allocation, it defeats coalescing (neighbours
        // are no longer offset-adjacent through it), and a second
        // zero-size free at the same offset slips past the overlap guard.
        if a.size == 0 {
            return;
        }
        let pos = self.free.partition_point(|&(off, _)| off < a.offset);
        // Guard against double free / corruption.
        if let Some(&(off, size)) = self.free.get(pos) {
            assert!(
                a.offset + a.size <= off || off + size <= a.offset,
                "double free"
            );
        }
        if pos > 0 {
            let (poff, psize) = self.free[pos - 1];
            assert!(poff + psize <= a.offset, "double free");
        }
        self.free.insert(pos, (a.offset, a.size));
        self.in_use -= a.size;
        // Coalesce with neighbours.
        if pos + 1 < self.free.len() && self.free[pos].0 + self.free[pos].1 == self.free[pos + 1].0
        {
            let (_, next_size) = self.free.remove(pos + 1);
            self.free[pos].1 += next_size;
        }
        if pos > 0 && self.free[pos - 1].0 + self.free[pos - 1].1 == self.free[pos].0 {
            let (_, cur_size) = self.free.remove(pos);
            self.free[pos - 1].1 += cur_size;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unwraps an allocation the test constructed to fit; a `None` here is
    /// a test bug, reported with a message instead of a bare unwrap.
    fn must(b: Option<Allocation>) -> Allocation {
        match b {
            Some(b) => b,
            None => panic!("allocation unexpectedly failed"),
        }
    }

    #[test]
    fn s_max_formula() {
        // SET-E-like: l=34, N=2^16, dnum=35, k=1, BS=1, w=4.
        let s = s_max_bytes(34, 1 << 16, 35, 1, 1, 4).expect("valid params");
        assert_eq!(s, 34 * 65536 * 35 * 35 * 4);
        // ~10.9 GB: a single ciphertext mid-keyswitch really is GB-scale,
        // as §III-C says ("nearly 1GB" per expanded component).
        assert!(s > 10 * (1 << 30) && s < 12 * (1 << 30));
    }

    /// Regression (satellite fix): degenerate parameters used to return
    /// `Ok(0)`-shaped garbage — a 0-byte S_max sized the pool to nothing
    /// and every later alloc failed far from the mistake. Now typed.
    #[test]
    fn s_max_rejects_degenerate_params() {
        for (l, n, dnum, k, batch, word) in [
            (0, 1 << 16, 35, 1, 1, 4),  // l = 0
            (34, 0, 35, 1, 1, 4),       // N = 0
            (34, 1 << 16, 0, 1, 1, 4),  // dnum = 0
            (34, 1 << 16, 35, 1, 0, 4), // batch = 0
            (34, 1 << 16, 35, 1, 1, 0), // word = 0
            (0, 1 << 16, 35, 0, 1, 4),  // l + k = 0
        ] {
            assert!(
                matches!(
                    s_max_bytes(l, n, dnum, k, batch, word),
                    Err(wd_fault::WdError::InvalidParams(_))
                ),
                "({l}, {n}, {dnum}, {k}, {batch}, {word}) must be rejected"
            );
        }
        // k = 0 alone is fine (a chain with no special primes).
        assert!(s_max_bytes(34, 1 << 16, 35, 0, 1, 4).is_ok());
    }

    /// The u128 overflow boundary: products that wrap must surface as
    /// `InvalidParams`, not as a silently tiny pool.
    #[test]
    fn s_max_overflow_boundary() {
        let huge = usize::MAX;
        assert!(matches!(
            s_max_bytes(huge, huge, huge, 0, 1, 1),
            Err(wd_fault::WdError::InvalidParams(_))
        ));
        // l + k itself overflowing usize is also caught.
        assert!(matches!(
            s_max_bytes(huge, 1, 1, 1, 1, 1),
            Err(wd_fault::WdError::InvalidParams(_))
        ));
        // Just inside the boundary: l·N·dnum·(l+k)·BS·w = 2^124 stays Ok.
        let big = 1usize << 31;
        let s = s_max_bytes(big, big, big, 0, 1, 1).expect("2^124 fits in u128");
        assert_eq!(s, 1u128 << 124);
    }

    #[test]
    fn pool_clamps_to_available() {
        let pool = MemoryPool::for_params(34, 1 << 16, 35, 1, 128, 80 << 30).expect("valid params");
        assert_eq!(pool.capacity(), 80 << 30, "clamped to device memory");
    }

    #[test]
    fn pool_for_degenerate_params_errors() {
        assert!(MemoryPool::for_params(0, 1 << 16, 35, 1, 128, 80 << 30).is_err());
    }

    #[test]
    fn alloc_free_cycle() {
        let mut p = MemoryPool::new(4096);
        let a = must(p.alloc(1000));
        assert_eq!(a.size, 1024, "aligned to 256");
        let b = must(p.alloc(1024));
        assert_eq!(p.in_use(), 2048);
        p.free(a);
        let c = must(p.alloc(512));
        assert_eq!(c.offset, 0, "first fit reuses the freed block");
        p.free(b);
        p.free(c);
        assert_eq!(p.in_use(), 0);
        // Full coalescing: one 4096 block again.
        let d = must(p.alloc(4096));
        assert_eq!(d.offset, 0);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut p = MemoryPool::new(1024);
        assert!(p.alloc(2048).is_none());
        let _a = must(p.alloc(1024));
        assert!(p.alloc(256).is_none());
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut p = MemoryPool::new(4096);
        let a = must(p.alloc(2048));
        p.free(a);
        let _b = must(p.alloc(256));
        assert_eq!(p.high_water(), 2048);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut p = MemoryPool::new(4096);
        let a = must(p.alloc(256));
        p.free(a);
        p.free(a);
    }

    /// Regression (satellite fix): `alloc(0)` used to round up to a full
    /// 256-byte block, so an empty-batch edge case silently burned pool
    /// space — with a full pool, `alloc(0)` even failed outright.
    #[test]
    fn alloc_zero_consumes_nothing() {
        let mut p = MemoryPool::new(1024);
        let z = must(p.alloc(0));
        assert_eq!(z.size, 0);
        assert_eq!(p.in_use(), 0);
        // The whole pool is still allocatable.
        let a = must(p.alloc(1024));
        // And zero-size allocation still succeeds at full occupancy.
        let z2 = must(p.alloc(0));
        p.free(z);
        p.free(z2);
        p.free(a);
        assert_eq!(p.in_use(), 0);
        assert!(p.alloc(1024).is_some());
    }

    /// Regression (satellite fix): freeing a zero-size handle used to
    /// insert a zero-length fragment into the free list. The fragment can
    /// never satisfy an allocation, it sits between otherwise-adjacent
    /// blocks and defeats coalescing, and a real free at the same offset
    /// then corrupts the list ordering.
    #[test]
    fn free_zero_size_creates_no_fragment() {
        let mut p = MemoryPool::new(4096);
        let z = must(p.alloc(0));
        let a = must(p.alloc(2048));
        let b = must(p.alloc(2048));
        p.free(z); // must be a no-op, not a (0, 0) fragment
        p.free(a);
        p.free(b);
        // Full coalescing must survive the zero-size free.
        assert_eq!(must(p.alloc(4096)).offset, 0);
    }

    /// Three-way coalesce: freeing the middle block when both neighbours
    /// are already free must merge all three into one block.
    #[test]
    fn three_way_coalesce_restores_single_block() {
        let mut p = MemoryPool::new(3072);
        let a = must(p.alloc(1024));
        let b = must(p.alloc(1024));
        let c = must(p.alloc(1024));
        p.free(a);
        p.free(c);
        assert!(p.alloc(2048).is_none(), "no contiguous 2048 yet");
        p.free(b);
        assert_eq!(must(p.alloc(3072)).offset, 0, "left+middle+right merged");
    }

    #[test]
    fn fragmentation_then_coalesce() {
        let mut p = MemoryPool::new(4096);
        let blocks: Vec<_> = (0..4).map(|_| must(p.alloc(1024))).collect();
        // Free alternating blocks: no single 2048 block exists.
        p.free(blocks[0]);
        p.free(blocks[2]);
        assert!(p.alloc(2048).is_none());
        // Free the rest: coalescing must restore a 4096 block.
        p.free(blocks[1]);
        p.free(blocks[3]);
        assert!(p.alloc(4096).is_some());
    }
}
